"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, untraced and traced, on one tiny
instance; checks that each run passes the gate and emits every metric
BENCHMARK.json names, with its unit; checks that every per-layer metric
has a prediction; and checks that the correctness gate rejects corrupted
final states.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import unittest

import run

run.import_path()

import measure  # noqa: E402
from lnbalance import rebalancer  # noqa: E402
from workloads import WORKLOADS, Instance, check_bundle, check_final, node_funds, run_simulate, setup_graph  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((run.ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8"))
OUT = run.OUT / "selftest"
SEED = 3


def tiny(w):
    capped = None if w.max_operations is None else min(w.max_operations, 15)
    return dataclasses.replace(w, nodes=30, instances=1, max_operations=capped)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(OUT, ignore_errors=True)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for w in WORKLOADS.values():
            for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
                with self.subTest(workload=w.name, trace=trace):
                    line = run.summary(measure.run(tiny(w), SEED, 0.01, trace, OUT), trace)
                    self.assertTrue(line["correct"])
                    self.assertGreaterEqual(line["attempted"], 2)
                    expected = {m["name"]: m["unit"] for m in declared}
                    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
                    self.assertEqual(emitted, expected)
                    for name, m in line["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_every_layer_metric_has_a_prediction(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(set(PREDICTIONS), {m["name"] for m in BENCHMARK["per_layer"]})
        for name, p in PREDICTIONS.items():
            with self.subTest(metric=name):
                self.assertLessEqual(set(p["moves"]), e2e)
                self.assertTrue(p["workloads"])
                self.assertLessEqual(set(p["workloads"]), set(WORKLOADS))


class GateTest(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(parents=True, exist_ok=True)
        w = tiny(WORKLOADS["rebalance-gini"])
        self.inst = measure.make_instances(w, SEED, OUT)[0]
        g = setup_graph(self.inst)
        self.funds = node_funds(g)
        config = rebalancer.SimulationConfig(
            seed=self.inst.seed, strategy=w.strategy, agreement_mode=w.agreement, max_operations=w.max_operations
        )
        self.result = rebalancer.run_simulation(g, config)
        self.last = self.result.operations[-1].imbalance_after

    def tearDown(self):
        shutil.rmtree(OUT, ignore_errors=True)

    def check(self, fee_total=0):
        failures, _ = check_final(self.funds, self.result.graph, fee_total, len(self.result.operations), self.last)
        return failures

    def corrupt_channel(self):
        return next(ch for ch in self.result.graph.channels.values() if ch.balance_a > 0)

    def test_clean_run_passes(self):
        self.assertEqual(self.check(), [])

    def test_broken_capacity_fails(self):
        self.corrupt_channel().balance_a -= 1
        failures = self.check()
        self.assertTrue(any("capacity" in f for f in failures), failures)

    def test_moved_funds_fail(self):
        ch = self.corrupt_channel()
        ch.balance_a -= 1
        ch.balance_b += 1
        failures = self.check()
        self.assertTrue(any("total funds" in f for f in failures), failures)
        self.assertTrue(any("imbalance_after" in f for f in failures), failures)

    def test_unbalanced_fee_ledger_fails(self):
        self.assertTrue(any("fee ledger" in f for f in self.check(fee_total=5)))

    def test_corrupted_bundle_fails(self):
        w = tiny(WORKLOADS["simulate-cycle4"])
        inst = Instance(0, self.inst.seed, self.inst.snapshot, OUT / "bundle")
        self.assertEqual(run_simulate(w, inst).failures, [])
        path = inst.bundle / "final_state.csv"
        rows = path.read_text(encoding="utf-8").splitlines()
        fields = rows[1].split(",")
        fields[-1] = str(int(fields[-1]) + 1)
        rows[1] = ",".join(fields)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self.assertTrue(check_bundle(inst.bundle, 0).failures)
        (inst.bundle / "stray.txt").write_text("x", encoding="utf-8")
        self.assertTrue(any("manifest" in f for f in check_bundle(inst.bundle, 0).failures))
        self.assertTrue(check_bundle(inst.bundle, 4).failures)


if __name__ == "__main__":
    unittest.main()
