"""The benchmark's workloads, their seeded inputs and the correctness gate.

Every workload runs the same kind of input: a preferential-attachment
snapshot made by ``generate_synthetic`` (the code behind ``lnbalance gen``,
degree 5, the CLI's default capacity range) and written as snapshot CSV.
One benchmark seed yields several such inputs ("instances"), so a run
averages over input shapes instead of resting on one graph.

Workloads reach the package only through module attributes
(``rebalancer.run_simulation``, ``ingestion.load_snapshot``, ``cli.main``),
so the tracer in ``tracing.py`` can wrap them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from lnbalance import cli, ingestion, rebalancer
from lnbalance.model import network_imbalance
from speed import Timed

DEGREE = 5
CAPACITY_RANGE = (10_000, 10_000_000)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; its one-line reason lives in BENCHMARK.json."""

    name: str
    nodes: int
    instances: int
    strategy: str
    agreement: str
    # None keeps the simulate command's own default
    max_operations: int | None
    via_cli: bool


# Sizes keep one execution near a second or two, so a 30-second run repeats
# every instance at least twice.  Work per instance varies with the graph
# (eval samples, foaf set sizes), so a run spreads its work over many
# instances to keep its totals steady from seed to seed.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="simulate-cycle4",
            nodes=150,
            instances=7,
            strategy="cycle4",
            agreement="band",
            max_operations=None,
            via_cli=True,
        ),
        Workload(
            name="rebalance-foaf",
            nodes=200,
            instances=16,
            strategy="foaf",
            agreement="band",
            max_operations=40,
            via_cli=False,
        ),
        Workload(
            name="rebalance-gini",
            nodes=200,
            instances=16,
            strategy="cycle4",
            agreement="gini",
            max_operations=200,
            via_cli=False,
        ),
    ]
}


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    snapshot: Path
    bundle: Path


def make_instances(w: Workload, seed: int, workdir: Path) -> list[Instance]:
    """Write the workload's snapshots for benchmark seed `seed`."""
    rng = random.Random(seed)
    out = []
    for i in range(w.instances):
        inst_seed = rng.randrange(2**31)
        snapshot = workdir / f"snapshot-{i}.csv"
        records = ingestion.generate_synthetic(w.nodes, DEGREE, CAPACITY_RANGE, inst_seed)
        ingestion.write_snapshot(records, snapshot)
        out.append(Instance(i, inst_seed, snapshot, workdir / f"bundle-{i}"))
    return out


def setup_graph(inst: Instance):
    """Load, coin-flip allocation and largest SCC: what `simulate` does first."""
    records = ingestion.load_snapshot(inst.snapshot)
    return ingestion.largest_scc(ingestion.allocate_funds_coinflip(records, inst.seed))


@dataclass
class Outcome:
    """What one execution of a workload on one instance produced.

    `run_s` is in reference seconds (see speed.py), `wall_s` raw, and
    `scale` converts this execution's raw seconds to reference seconds.
    """

    run_s: float
    wall_s: float
    scale: float
    ops: int
    digest: str
    final_imbalance: float
    nodes: int
    channels: int
    bundle_bytes: int = 0
    failures: list[str] = field(default_factory=list)


def operation_line(g, op) -> str:
    """One operation exactly as the simulate command writes it to operations.jsonl."""
    return (
        json.dumps(
            {
                "seq": op.seq,
                "initiator": g.label(op.initiator),
                "cycle_nodes": [g.label(n) for n in op.cycle.nodes],
                "cycle_channels": list(op.cycle.channel_ids),
                "amount_sat": op.amount,
                "imbalance_after": op.imbalance_after,
            }
        )
        + "\n"
    )


def node_funds(g) -> dict[str, int]:
    """Total balance per node label, summed from the channels."""
    funds: dict[str, int] = {}
    for ch in g.channels.values():
        a, b = g.label(ch.node_a), g.label(ch.node_b)
        funds[a] = funds.get(a, 0) + ch.balance_a
        funds[b] = funds.get(b, 0) + ch.balance_b
    return funds


def check_final(funds_before: dict[str, int], final, fee_total: int, ops: int, last_imbalance: float | None) -> tuple[list[str], float]:
    """The state checks of the gate; returns (failures, final imbalance).

    The final imbalance is recomputed from the final graph; it must equal
    the last operation's `imbalance_after` up to float summation order.
    """
    failures = []
    for ch in final.channels.values():
        if ch.balance_a + ch.balance_b != ch.capacity or ch.balance_a < 0 or ch.balance_b < 0:
            failures.append(f"channel {ch.cid} breaks balance_a + balance_b == capacity")
            break
    funds_after = node_funds(final)
    if funds_after != funds_before:
        changed = sorted(k for k in funds_before.keys() | funds_after.keys() if funds_before.get(k) != funds_after.get(k))
        failures.append(f"total funds changed for {len(changed)} nodes, e.g. {changed[:3]}")
    if fee_total != 0:
        failures.append(f"fee ledger sums to {fee_total}, not 0")
    final_imbalance = network_imbalance(final)
    if ops < 1 or last_imbalance is None:
        failures.append("no operation executed")
    elif not math.isclose(last_imbalance, final_imbalance, rel_tol=1e-12, abs_tol=1e-15):
        failures.append(f"last imbalance_after {last_imbalance!r} != recomputed {final_imbalance!r}")
    return failures, final_imbalance


def run_rebalance(w: Workload, inst: Instance) -> Outcome:
    """`run_simulation` without hooks on a freshly set-up graph."""
    g = setup_graph(inst)
    funds_before = node_funds(g)
    config = rebalancer.SimulationConfig(
        seed=inst.seed,
        strategy=w.strategy,
        agreement_mode=w.agreement,
        max_operations=w.max_operations,
    )
    with Timed() as timed:
        result = rebalancer.run_simulation(g, config)
    digest = hashlib.sha256()
    for op in result.operations:
        digest.update(operation_line(result.graph, op).encode("utf-8"))
    last = result.operations[-1].imbalance_after if result.operations else None
    ops = len(result.operations)
    failures, final_imbalance = check_final(funds_before, result.graph, result.ledger.total(), ops, last)
    return Outcome(
        timed.ref_s, timed.wall_s, timed.scale, ops, digest.hexdigest(), final_imbalance,
        g.num_nodes(), g.num_channels(), failures=failures,
    )


def simulate_argv(w: Workload, inst: Instance) -> list[str]:
    argv = [
        "simulate",
        "-i", str(inst.snapshot),
        "--strategy", w.strategy,
        "--agreement", w.agreement,
        "--seed", str(inst.seed),
        "-o", str(inst.bundle),
    ]
    if w.max_operations is not None:
        argv += ["--max-operations", str(w.max_operations)]
    return argv


def run_simulate(w: Workload, inst: Instance, tracer=None) -> Outcome:
    """The full `lnbalance simulate` command, in process, then its bundle checked."""
    shutil.rmtree(inst.bundle, ignore_errors=True)
    argv = simulate_argv(w, inst)
    command = _cli_exit_code if tracer is None else tracer.wrap("cli.simulate", _cli_exit_code)
    with redirect_stdout(io.StringIO()), Timed() as timed:
        code = command(argv)
    outcome = check_bundle(inst.bundle, code)
    outcome.run_s, outcome.wall_s, outcome.scale = timed.ref_s, timed.wall_s, timed.scale
    return outcome


def _cli_exit_code(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def check_bundle(bundle: Path, code: int) -> Outcome:
    """The gate on a simulate bundle: exit code, file set, then state checks."""
    failed = Outcome(0.0, 0.0, 1.0, 0, "", 0.0, 0, 0)
    if code != 0:
        failed.failures.append(f"simulate exited with {code}")
        return failed
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    present = sorted(p.name for p in bundle.iterdir())
    if present != sorted(manifest["outputs"]):
        failed.failures.append(f"bundle holds {present}, manifest lists {manifest['outputs']}")
        return failed
    try:
        initial = ingestion.load_state(bundle / "initial_state.csv")
        final = ingestion.load_state(bundle / "final_state.csv")
    except ingestion.SnapshotError as exc:
        failed.failures.append(f"unreadable state file: {exc}")
        return failed
    ops_bytes = (bundle / "operations.jsonl").read_bytes()
    lines = ops_bytes.splitlines()
    last = json.loads(lines[-1])["imbalance_after"] if lines else None
    with open(bundle / "fees.csv", encoding="utf-8") as fh:
        next(fh)
        fee_total = sum(int(line.rsplit(",", 1)[1]) for line in fh if line.strip())
    failures, final_imbalance = check_final(node_funds(initial), final, fee_total, len(lines), last)
    return Outcome(
        0.0,
        0.0,
        1.0,
        len(lines),
        hashlib.sha256(ops_bytes).hexdigest(),
        final_imbalance,
        final.num_nodes(),
        final.num_channels(),
        bundle_bytes=sum(p.stat().st_size for p in bundle.iterdir()),
        failures=failures,
    )


def execute(w: Workload, inst: Instance, tracer=None) -> Outcome:
    if w.via_cli:
        return run_simulate(w, inst, tracer)
    return run_rebalance(w, inst)
