"""lnbalance benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload rebalance-gini --seed 1 --seconds 20 --trace 0

The seed makes the workload's input snapshots (see ``workloads.py``); the
same seed gives the same inputs.  The run executes the workload round-robin
over its instances until ``--seconds`` have passed and every instance ran
at least twice (on a slowed host: until 1.2 times ``--seconds``, once each
ran), checks every execution with the correctness gate, and requires
repeats of one instance to produce byte-identical operations.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics (medians over passes) plus the tracing overhead.

Times are reference seconds: wall seconds corrected for the host's
current CPU speed by a probe around each timed region (see ``speed.py``).
``run_s`` is the mean over instances of each instance's fastest execution;
``setup_s`` the median of all set-ups (load, coin-flip allocation, largest
SCC), timed five at a time before each execution of the first pass.  ``peak_rss_mb`` is the
process's peak RSS and ``final_imbalance`` the mean over instances of
``network_imbalance`` recomputed on the final graph.

Metric predictions (which end-to-end metric and workload each per-layer
metric should move) are in ``predictions.json``; ``selftest.py`` checks
the benchmark itself on tiny inputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the run
context and the operations digest, is written under ``perfbench/out/``.
The exit code is nonzero when any execution fails the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# the benchmark process is single-threaded, numpy included
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "final_imbalance": "gini",
}

LAYER_UNITS = {
    "ingestion.load_s": "s",
    "ingestion.allocate_s": "s",
    "ingestion.scc_s": "s",
    "ingestion.write_state_s": "s",
    "cycles.enumerate_calls": "count",
    "cycles.enumerate_s": "s",
    "cycles.candidates": "count",
    "cycles.useful_ratio": "ratio",
    "rebalancer.candidate_channels_calls": "count",
    "rebalancer.candidate_channels_s": "s",
    "rebalancer.self_s": "s",
    "rebalancer.gini_probes": "count",
    "rebalancer.gini_probe_s": "s",
    "model.node_gini_calls": "count",
    "model.node_gini_s": "s",
    "model.apply_calls": "count",
    "model.apply_s": "s",
    "evaluation.calls": "count",
    "evaluation.s": "s",
    "evaluation.share": "ratio",
    "evaluation.pairs_per_s": "pairs/s",
    "cli.self_s": "s",
    "cli.bundle_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def summary(result: dict, trace: bool) -> dict:
    """The result line: every metric of the run's kind, with its unit."""
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def import_path() -> None:
    """Put the checkout's sources and this directory first on the import path."""
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lnbalance" / "__init__.py").is_file():
        print(f"error: no lnbalance sources under {SRC}", file=sys.stderr)
        return 2
    import_path()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)
    line = summary(result, bool(args.trace))
    for failure in result["failures"]:
        print(f"gate failure: {failure}", file=sys.stderr)
    print(f"perfbench: operations digest {result['operations_digest']}")
    print(f"perfbench: full result in {result['path'].relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
