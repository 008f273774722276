"""End-to-end tests of the command line, run in process through `main`."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lnbalance
from lnbalance import evaluation
from lnbalance.cli import main
from lnbalance.evaluation import ks_distance
from lnbalance.model import InvariantViolation
from lnbalance.rebalancer import SimulationConfig

# sha256 of simulate's outputs on the snapshot of `gen --nodes 40 --degree 3
# --seed 7` with `--seed 7`, keyed by test id: (simulate flags, digests).
# cycle4 and cycle5 (band, uncapped) were recorded with an evaluation that
# recomputed every route at every sample; cached routes must reproduce them
# exactly.  The next six pin every strategy x agreement pair, capped at 30
# operations to stay fast.  The state and fee files pin the CSV writers.
INITIAL_STATE = "4517fe54457f6ee7021adc513af569bfeed135ac900f52b1d4e0b950e1022921"
GOLDEN = {
    "cycle4": (
        ["cycle4"],
        {
            "metrics.csv": "4598f38b3be228bf1a223b454448d6734c26210ba18f300233e6310f73a82033",
            "operations.jsonl": "623c053c46c879b70ae993822c37f968c00767e4660a433daf50e7aeea2d9192",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "d315abcc40beee476dbb37b3eec5d00182e302a706027c31137f017d1769510a",
            "fees.csv": "01b03ef4e1a371fe3eb4fd468203ec32a072769b51347d7dc78e75f31ebaff56",
        },
    ),
    "cycle5": (
        ["cycle5"],
        {
            "metrics.csv": "ff0c4d8bba1598969753b433a24e8b40d01caeeb2f8023190084a4cde326c40f",
            "operations.jsonl": "db61d01a7d7b2f656a5978a4143774b9759f62391cbce8235898619d7496e3d3",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "a18403e3ee7fbbdf05c6414cde264628f52fccf29f92108522406db5b725dbee",
            "fees.csv": "53d4c44e0abcc65df3db9484a8f500e34d91c1dd71b0c5e08f183065a6cc0b95",
        },
    ),
    "cycle4-gini": (
        ["cycle4", "--agreement", "gini", "--max-operations", "30"],
        {
            "metrics.csv": "a3aaa561fdf657ff04a81ff45f529addb2014a565069936af21aa506a0f446b1",
            "operations.jsonl": "b5e5b6f28063023623f34540a0322a82a9fa9bf8020f6a3e1f8a0e71fd2b5d82",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "5e169e555789673540279ba5a3bd6600430dd6d6a3965fbe25b6bd55e84acd98",
            "fees.csv": "9a386f0c5085f87832f4472d1d3b9ea6ce672bd2b76026b88488321f2e39fc33",
        },
    ),
    "cycle5-gini": (
        ["cycle5", "--agreement", "gini", "--max-operations", "30"],
        {
            "metrics.csv": "a7c18b4353adc7b6300a9af91508fd7cc72b035c68c93b73bfe0e9071c3f21c6",
            "operations.jsonl": "30553496c8d3dafc9dd5d275c357cef8594f61b76aba0e47b5e752d3759a26de",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "ed990180716cc5a0cd53959e084cc24d6f605dbdf2322df9ca6411d760cbb440",
            "fees.csv": "72950bbb4ceed19d04745df8cc321b988a38d14e3bcdd0e3571fb9f69d0dafc8",
        },
    ),
    "foaf-band": (
        ["foaf", "--max-operations", "30"],
        {
            "metrics.csv": "d8960e8fa17330c0dcaec0e796c85d47e7399e5bd73263c954aa86d47eed2b36",
            "operations.jsonl": "997b62188f27e896928aa84856daabdcf8ae2309142dbb12809a645f6a97c08d",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "f44edb588e57db963de01cc1599c67d630e05e59a7e58de711367d7b739e3c1f",
            "fees.csv": "5cf3ddcf55c7045fb34353f3eb7f248ace66f6cd3c0cabc2164ada85633cc280",
        },
    ),
    "foaf-gini": (
        ["foaf", "--agreement", "gini", "--max-operations", "30"],
        {
            "metrics.csv": "09de36cb91ca81a8ade888168f9af3b4571e854010533b8616b2dfbc3ed7cbfc",
            "operations.jsonl": "8f0d818df0c8231529d68447b774cb57fd70308edca00de4d0a7753a477a6763",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "4b72d718bb49878eb8786194437d4560f0a91b25e187340d6c55972827db4016",
            "fees.csv": "f47ea2f4ca3d82a588700dfc4b05152a77c899d7d0ec8ce4cce23589a1367e3f",
        },
    ),
    "mpp-band": (
        ["mpp", "--max-operations", "30"],
        {
            "metrics.csv": "237ef3f7772e45567bb9bb9fffce3f1e4212afac04eaf1b8161dbc53cb1662c0",
            "operations.jsonl": "419a3228b38778021490e0d0bfc869d53eba27d31da8ad3917eae5b1f85f7697",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "2cc79ec1e34beacab59907bba20d88631e001c54ea0abd154f748cc454701692",
            "fees.csv": "66f0a5fcc86b3f6f3ba56bbe5b8e973815938c6bbc566e253d5b015687701a4d",
        },
    ),
    "mpp-gini": (
        ["mpp", "--agreement", "gini", "--max-operations", "30"],
        {
            "metrics.csv": "b1bd6408b89a62e10065c581652a38fc23cbd292c5441d96da63e3817e2f5629",
            "operations.jsonl": "4b7d73d26823b9db2cb3551f1b7074662c1484786cea3eaf642df44ff2646b88",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "88df13fb1220437d1d7723e89c8492f7877cc71cc91d3167af0ab00843a84b6e",
            "fees.csv": "700a63929e925b9730bbb56370f1907faa86178914eb788f2a4ab252faf6e3a2",
        },
    ),
    # the mpp split and the skip of a visit whose split proposal is below
    # --min-amount, which fires 11 times in this run
    "mpp-min-amount": (
        ["mpp", "--mpp-divisor", "7", "--min-amount", "1000", "--max-operations", "30"],
        {
            "metrics.csv": "b72ffc3895543ce5d1fe6ce461ba7b9017455548c04e3f8241713cd131bea8de",
            "operations.jsonl": "49912c4e038e5964d0540fb2f36ffb63df510013440d1f6c051016dac01c3c24",
            "initial_state.csv": INITIAL_STATE,
            "final_state.csv": "82992ac9bc71870ab8ed4d73bfca1e5e2eb5472254e56b9756e49f1379b6e1ea",
            "fees.csv": "20cdfa3ecdcab36941aefbb0ff9cf9304d504a9a47e750ab563512125c741929",
        },
    ),
}

GOLDEN_SNAPSHOT = "472e58d44c803de17427fa8dd2c9246e2b597a9400dcf056fd30f7c06f5b307c"

# sha256 of evaluate's outputs on the final state of the cycle4 bundle.  The
# sampled case takes every pair of ceil(500 / 36) = 14 sources of 37 nodes; its
# report adds success_rate_se (0.03350654596774521) to the full report's keys.
GOLDEN_EVALUATE = {
    "defaults": (
        [],
        {
            "report.json": "6232b4070986bca4ba2f2e4c95e824f061f98f9256fafcf671435f4b7e625331",
            "payment_size_cdf.csv": "c2f3ae74038dd663677685a1b66ea493fbb10577e8a980195d3a1bb29f22f0fb",
            "gini_cdf.csv": "a2fd49fd93c7c87dd39aa9d8cb043255903eea41db57fb673dab0768d102c9d0",
        },
    ),
    "sampled": (
        ["--sample-pairs", "500", "--amount", "1000", "--seed", "3"],
        {
            "report.json": "e82fd5c20e464a5a6e8b2609d6a08209162d3162208e64565ef7114e93e6af87",
            "payment_size_cdf.csv": "082dd5672ea0dc14bcbf1a7d76c43f53ad25443c30e6e263d8d2ac9216cb0176",
            "gini_cdf.csv": "a2fd49fd93c7c87dd39aa9d8cb043255903eea41db57fb673dab0768d102c9d0",
        },
    ),
}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "snap.csv"
    assert main(["gen", "--nodes", "40", "--degree", "3", "--seed", "7", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def bundle(snapshot, tmp_path_factory):
    """The cycle4 bundle of `snapshot`, for tests that only read it."""
    out = tmp_path_factory.mktemp("simulated") / "bundle"
    assert simulate(snapshot, out) == 0
    return out


def simulate(snapshot, outdir, strategy="cycle4", *flags):
    argv = ["simulate", "-i", str(snapshot), "--strategy", strategy, "--seed", "7", "-o", str(outdir)]
    return main([*argv, *flags])


def digests(bundle):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundle.iterdir()}


@pytest.mark.parametrize("case", GOLDEN)
def test_simulate_bundle_is_complete_and_golden(snapshot, tmp_path, case):
    flags, golden = GOLDEN[case]
    bundle = tmp_path / "bundle"
    assert simulate(snapshot, bundle, *flags) == 0
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(p.name for p in bundle.iterdir()) == sorted(manifest["outputs"])
    got = digests(bundle)
    for name, expected in golden.items():
        assert got[name] == expected, name


def test_gen_snapshot_is_golden(snapshot):
    assert hashlib.sha256(snapshot.read_bytes()).hexdigest() == GOLDEN_SNAPSHOT


@pytest.mark.parametrize("case", GOLDEN_EVALUATE)
def test_evaluate_outputs_are_golden(bundle, tmp_path, case):
    flags, golden = GOLDEN_EVALUATE[case]
    out = tmp_path / "eval"
    assert main(["evaluate", "-i", str(bundle / "final_state.csv"), "-o", str(out), *flags]) == 0
    assert digests(out) == golden


def test_simulate_samples_build_no_payment_cdf(snapshot, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(evaluation, "cdf_points", lambda ordered: built.append(ordered) or [])
    assert simulate(snapshot, tmp_path / "bundle") == 0
    assert built == []


def test_simulate_rerun_is_byte_identical(snapshot, tmp_path):
    assert simulate(snapshot, tmp_path / "a") == 0
    (tmp_path / "b").mkdir()  # an existing empty outdir is replaced by the bundle
    assert simulate(snapshot, tmp_path / "b") == 0
    assert digests(tmp_path / "a") == digests(tmp_path / "b")


def test_manifest_config_round_trips(snapshot, tmp_path):
    # every simulate flag off its default
    argv = ["simulate", "-i", str(snapshot), "-o", str(tmp_path / "bundle"), "--strategy", "mpp",
            "--seed", "3", "--cycle-cap", "100", "--agreement", "gini", "--relax-sink",
            "--mpp-divisor", "7", "--min-amount", "3", "--max-operations", "5", "--epsilon", "0.02"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text(encoding="utf-8"))
    assert SimulationConfig(**manifest["config"]) == SimulationConfig(
        seed=3,
        strategy="mpp",
        cycle_cap=100,
        agreement_mode="gini",
        require_sink_condition=False,
        mpp_divisor=7,
        min_amount=3,
        max_operations=5,
        convergence_epsilon=0.02,
    )


def test_manifest_config_defaults_come_from_simulation_config(bundle):
    # `bundle` was simulated with no optional flag
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    defaults = dataclasses.asdict(SimulationConfig(seed=7, strategy="cycle4"))
    assert manifest["config"] == {**defaults, "strategy": "cycle4"}


def test_evaluate_compare_reports_ks_distance(bundle, tmp_path, capsys):
    assert main(["evaluate", "-i", str(bundle / "initial_state.csv"), "-o", str(tmp_path / "initial")]) == 0
    baseline = tmp_path / "initial" / "report.json"
    argv = ["evaluate", "-i", str(bundle / "final_state.csv"), "--compare", str(baseline),
            "-o", str(tmp_path / "final")]
    assert main(argv) == 0
    assert "ks_vs_baseline" in capsys.readouterr().out
    initial = json.loads(baseline.read_text(encoding="utf-8"))
    final = json.loads((tmp_path / "final" / "report.json").read_text(encoding="utf-8"))
    expected = ks_distance(final["gini_values"], initial["gini_values"])
    assert expected > 0
    assert final["ks_distance_vs_baseline"] == expected


@pytest.mark.parametrize(
    "baseline",
    ['[0.1, 0.2]', '{"gini_values": null}', '{"success_rate": 1.0}', '{"gini_values": ["a"]}',
     '{"gini_values": []}', '{"gini_values": [NaN]}'],
    ids=["array", "null", "missing-key", "strings", "empty", "nan"],
)
def test_evaluate_malformed_baseline_exits_3(baseline, bundle, tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text(baseline, encoding="utf-8")
    argv = ["evaluate", "-i", str(bundle / "final_state.csv"), "--compare", str(path),
            "-o", str(tmp_path / "eval")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: baseline is not")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]


def test_evaluate_matches_last_simulate_sample(bundle, tmp_path, capsys):
    final = bundle / "final_state.csv"
    assert main(["evaluate", "-i", str(final), "-o", str(tmp_path / "eval")]) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text(encoding="utf-8"))
    last = (bundle / "metrics.csv").read_text(encoding="utf-8").splitlines()[-1]
    _, _, rate, median = last.split(",")
    assert repr(report["success_rate"]) == rate
    assert report["median_payment_sat"] == int(median)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--nodes", "5", "--degree", "0", "--seed", "1", "-o", "unused.csv"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--threads", "2"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--cycle-cap", "0"],
        ["simulate", "-i", "unused.csv", "--strategy", "mpp", "--seed", "1", "-o", "out", "--mpp-divisor", "0"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--min-amount", "0"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--max-operations", "-1"],
        ["evaluate", "-i", "unused.csv", "-o", "out", "--sample-pairs", "0"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--no-verify"],
        ["gen", "--nodes", "3", "--degree", "3", "--seed", "1", "-o", "unused.csv"],
        ["gen", "--nodes", "5", "--degree", "2", "--cap-min", "0", "--seed", "1", "-o", "unused.csv"],
        ["gen", "--nodes", "5", "--degree", "2", "--cap-min", "50", "--cap-max", "10", "--seed", "1", "-o", "unused.csv"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--epsilon", "nan"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--epsilon", "inf"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--epsilon", "-0.5"],
        ["gen", "--nodes", "10", "--degree", "2", "--seed", "1", "-o", "unused.jsonl"],
        ["simulate", "-i", "unused.csv", "--strategy", "cycle4", "--seed", "1", "-o", "out", "--agreement", "nope"],
    ],
)
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_empty_snapshot_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert simulate(empty, tmp_path / "bundle") == 3
    assert "empty snapshot" in capsys.readouterr().err


def test_missing_input_exits_3_without_outdir(tmp_path, capsys):
    assert simulate(tmp_path / "missing.csv", tmp_path / "bundle") == 3
    assert not (tmp_path / "bundle").exists()


def test_nonempty_outdir_exits_2_and_is_kept(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    outdir.mkdir()
    (outdir / "keep.txt").write_text("mine\n", encoding="utf-8")
    # the input does not exist either: the outdir is checked before it is read
    with pytest.raises(SystemExit) as exc:
        simulate(tmp_path / "missing.csv", outdir)
    assert exc.value.code == 2
    assert [p.name for p in outdir.iterdir()] == ["keep.txt"]
    assert (outdir / "keep.txt").read_text(encoding="utf-8") == "mine\n"


def test_evaluate_nonempty_outdir_exits_2_and_is_kept(tmp_path, capsys):
    outdir = tmp_path / "eval"
    outdir.mkdir()
    (outdir / "keep.txt").write_text("mine\n", encoding="utf-8")
    # the input does not exist either: the outdir is checked before it is read
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "-i", str(tmp_path / "missing.csv"), "-o", str(outdir)])
    assert exc.value.code == 2
    assert [p.name for p in outdir.iterdir()] == ["keep.txt"]
    assert (outdir / "keep.txt").read_text(encoding="utf-8") == "mine\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda snap, state, out: ["simulate", "-i", str(snap), "--strategy", "cycle4",
                                               "--seed", "1", "-o", str(out)], id="simulate"),
        pytest.param(lambda snap, state, out: ["evaluate", "-i", str(state), "-o", str(out)],
                     id="evaluate"),
    ],
)
def test_missing_parent_exits_3_and_creates_nothing(argv, snapshot, bundle, tmp_path, capsys):
    assert main(argv(snapshot, bundle / "final_state.csv", tmp_path / "a" / "b" / "out")) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["s.jsonl", "s.JSON"])
def test_gen_refuses_a_jsonl_name_before_writing(tmp_path, name, capsys):
    # simulate would read such a file as JSONL, but gen writes CSV
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--nodes", "10", "--degree", "2", "--seed", "1", "-o", str(tmp_path / name)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_gen_into_missing_directory_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "snap.csv"
    assert main(["gen", "--nodes", "5", "--degree", "2", "--seed", "1", "-o", str(out)]) == 3
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda snap, state, tmp: ["gen", "--nodes", "5", "--degree", "2", "--seed", "1",
                                               "-o", str(tmp)], id="gen-into-directory"),
        pytest.param(lambda snap, state, tmp: ["simulate", "-i", str(tmp), "--strategy", "cycle4",
                                               "--seed", "1", "-o", str(tmp / "bundle")],
                     id="simulate-from-directory"),
        pytest.param(lambda snap, state, tmp: ["simulate", "-i", str(snap), "--strategy", "cycle4",
                                               "--seed", "1", "-o", str(tmp / "file" / "sub")],
                     id="simulate-under-file"),
        pytest.param(lambda snap, state, tmp: ["evaluate", "-i", str(state), "-o", str(tmp / "file")],
                     id="evaluate-into-file"),
        pytest.param(lambda snap, state, tmp: ["simulate", "-i", str(snap), "--strategy", "cycle4",
                                               "--seed", "1", "-o", str(tmp / "file")],
                     id="simulate-into-file"),
    ],
)
def test_os_error_exits_3(argv, snapshot, bundle, tmp_path, capsys):
    (tmp_path / "file").write_text("mine\n", encoding="utf-8")
    assert main(argv(snapshot, bundle / "final_state.csv", tmp_path)) == 3
    assert capsys.readouterr().err.startswith("error: ")
    # nothing written, and no staging directory left behind
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "mine\n"


def test_module_entry_point_passes_exit_code(tmp_path):
    """`python -m lnbalance` exits with the code `main` returns."""
    src = str(Path(lnbalance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "lnbalance", "simulate", "-i", str(tmp_path / "missing.csv"),
            "--strategy", "cycle4", "--seed", "1", "-o", str(tmp_path / "bundle")]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert not (tmp_path / "bundle").exists()


def test_evaluate_plain_snapshot_exits_3(snapshot, tmp_path, capsys):
    assert main(["evaluate", "-i", str(snapshot), "-o", str(tmp_path / "eval")]) == 3
    assert "needs balances" in capsys.readouterr().err


def test_invariant_violation_exits_4(snapshot, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("node 0 total funds changed")

    monkeypatch.setattr("lnbalance.cli.run_simulation", broken)
    assert simulate(snapshot, tmp_path / "bundle") == 4
    assert "invariant violation: node 0 total funds changed" in capsys.readouterr().err
    # neither the bundle nor its staging directory is left behind
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param(["simulate", "--strategy", "cycle4", "--seed", "1"],
                     "node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\n"
                     f"b,c,10,1000,1\na,b,{2**63},1000,1\n", id="snapshot"),
        pytest.param(["evaluate"],
                     "node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm,balance_a_sat,balance_b_sat\n"
                     f"b,c,10,1000,1,5,5\na,b,{2**63},1000,1,{2**63},0\n", id="state"),
    ],
)
def test_capacity_past_int64_exits_3_and_publishes_nothing(command, text, tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    assert main([*command, "-i", str(path), "-o", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {path}:3: capacity must be in 1..{2**63 - 1}, got {2**63}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


def test_evaluate_fee_past_the_route_key_bound_exits_3(tmp_path, capsys):
    # three nodes: (n - 1) * n * fee + n reaches 2**62 from this fee on
    fee = (2**62 - 4) // 6 + 1
    path = tmp_path / "in.csv"
    path.write_text("node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm,balance_a_sat,balance_b_sat\n"
                    f"a,b,10,{fee},1,5,5\nb,c,10,1000,1,5,5\n", encoding="utf-8")
    assert main(["evaluate", "-i", str(path), "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: route keys") and "below 2**62" in err
    assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


def test_gen_cap_max_past_int64_exits_2_and_writes_nothing(tmp_path, capsys):
    argv = ["gen", "--nodes", "12", "--degree", "2", "--cap-max", str(2**63), "--seed", "1",
            "-o", str(tmp_path / "s.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("amount", ["above-every-bottleneck", str(10**20)])
def test_evaluate_amount_nothing_can_carry(amount, bundle, tmp_path, capsys):
    final = bundle / "final_state.csv"
    assert main(["evaluate", "-i", str(final), "-o", str(tmp_path / "one")]) == 0
    one = json.loads((tmp_path / "one" / "report.json").read_text(encoding="utf-8"))
    cdf = (tmp_path / "one" / "payment_size_cdf.csv").read_text(encoding="utf-8")
    if amount == "above-every-bottleneck":
        amount = str(int(cdf.splitlines()[-1].split(",")[0]) + 1)
    assert main(["evaluate", "-i", str(final), "--amount", amount, "-o", str(tmp_path / "big")]) == 0
    big = json.loads((tmp_path / "big" / "report.json").read_text(encoding="utf-8"))
    assert big["success_rate"] == 0.0
    assert big["amount_sat"] == int(amount)
    assert big["median_payment_sat"] == one["median_payment_sat"]
    assert (tmp_path / "big" / "payment_size_cdf.csv").read_text(encoding="utf-8") == cdf
