"""End-to-end tests of the command line, run in process through `main`."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lnbalance
from lnbalance.cli import main
from lnbalance.model import InvariantViolation
from lnbalance.rebalancer import SimulationConfig

# sha256 of simulate's outputs on the snapshot of `gen --nodes 40 --degree 3
# --seed 7` with `--seed 7`, recorded with an evaluation that recomputed
# every route at every sample; cached routes must reproduce them exactly
GOLDEN = {
    "cycle4": {
        "metrics.csv": "4598f38b3be228bf1a223b454448d6734c26210ba18f300233e6310f73a82033",
        "operations.jsonl": "623c053c46c879b70ae993822c37f968c00767e4660a433daf50e7aeea2d9192",
    },
    "cycle5": {
        "metrics.csv": "ff0c4d8bba1598969753b433a24e8b40d01caeeb2f8023190084a4cde326c40f",
        "operations.jsonl": "db61d01a7d7b2f656a5978a4143774b9759f62391cbce8235898619d7496e3d3",
    },
}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "snap.csv"
    assert main(["gen", "--nodes", "40", "--degree", "3", "--seed", "7", "-o", str(path)]) == 0
    return path


def simulate(snapshot, outdir, strategy="cycle4"):
    return main(["simulate", "-i", str(snapshot), "--strategy", strategy, "--seed", "7", "-o", str(outdir)])


def digests(bundle):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundle.iterdir()}


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_simulate_bundle_is_complete_and_golden(snapshot, tmp_path, strategy):
    bundle = tmp_path / "bundle"
    assert simulate(snapshot, bundle, strategy) == 0
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(p.name for p in bundle.iterdir()) == sorted(manifest["outputs"])
    got = digests(bundle)
    for name, expected in GOLDEN[strategy].items():
        assert got[name] == expected, name


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


def test_evaluate_matches_last_simulate_sample(snapshot, tmp_path, capsys):
    assert simulate(snapshot, tmp_path / "bundle") == 0
    final = tmp_path / "bundle" / "final_state.csv"
    assert main(["evaluate", "-i", str(final), "-o", str(tmp_path / "eval")]) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text(encoding="utf-8"))
    last = (tmp_path / "bundle" / "metrics.csv").read_text(encoding="utf-8").splitlines()[-1]
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


def test_gen_into_missing_directory_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "snap.csv"
    assert main(["gen", "--nodes", "5", "--degree", "2", "--seed", "1", "-o", str(out)]) == 3
    assert not (tmp_path / "missing").exists()


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
