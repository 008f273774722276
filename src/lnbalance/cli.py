"""Command line front end: generate, simulate, evaluate.

`gen` writes a synthetic snapshot CSV, `simulate` runs the full pipeline
(allocate funds, keep the largest strongly connected component, rebalance)
and writes a result bundle, `evaluate` computes payment metrics on any
state file.  Every command is deterministic under its seeds.  A
`simulate` bundle holds a manifest (config, input hash, output names) and
exactly the files it names.  It is built in a temporary sibling directory
and renamed onto `--outdir` once every file is written, so it appears
whole or not at all; an existing `--outdir` must be an empty directory.

`simulate` evaluates the network once per metrics sample, and every
sample reuses the cheapest-path trees built for the run's graph at the
first one.  Evaluation is single-threaded; there is no `--threads` flag.

Exit codes: 0 success, 2 usage, 3 input data error, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__
from .cycles import Strategy
from .evaluation import RouteCache, cdf_points, evaluate_network, ks_distance
from .ingestion import (
    SnapshotError,
    allocate_funds_coinflip,
    generate_synthetic,
    largest_scc,
    load_snapshot,
    load_state,
    write_snapshot,
    write_state,
)
from .model import InvariantViolation, NetworkGraph, network_imbalance
from .rebalancer import SimulationConfig, SimulationResult, run_simulation

SIMULATE_OUTPUTS = [
    "manifest.json",
    "initial_state.csv",
    "final_state.csv",
    "operations.jsonl",
    "metrics.csv",
    "fees.csv",
]

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INVARIANT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnbalance",
        description="Simulate and evaluate collaborative channel rebalancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic snapshot CSV")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--degree", type=int, required=True)
    gen.add_argument("--cap-min", type=int, default=10_000)
    gen.add_argument("--cap-max", type=int, default=10_000_000)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    sim = sub.add_parser("simulate", help="run the rebalancing simulation")
    sim.add_argument("-i", "--input", required=True, help="snapshot CSV or JSONL")
    sim.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--cycle-cap", type=int, default=5000)
    sim.add_argument("--agreement", choices=["band", "gini"], default="band")
    sim.add_argument("--mpp-divisor", type=int, default=20)
    sim.add_argument("--min-amount", type=int, default=1)
    sim.add_argument("--max-operations", type=int, default=1_000_000)
    sim.add_argument("--epsilon", type=float, default=0.01,
                     help="node Gini below this counts as even enough")
    sim.add_argument("--relax-sink", action="store_true",
                     help="drop the sink-side condition on cycle ends")
    sim.add_argument("-o", "--outdir", required=True)
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("evaluate", help="evaluate a state file (balances required)")
    ev.add_argument("-i", "--input", required=True, help="extended snapshot CSV")
    ev.add_argument("--amount", type=int, default=1)
    ev.add_argument("--compare", help="report JSON to compare Gini samples against")
    ev.add_argument("--sample-pairs", type=int, default=None,
                    help="approximate pair metrics from this many sampled pairs")
    ev.add_argument("--seed", type=int, default=0, help="seed for pair sampling")
    ev.add_argument("-o", "--outdir", required=True)
    ev.set_defaults(func=cmd_evaluate)

    return parser


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def cmd_gen(args) -> int:
    if args.degree < 1:
        raise UsageError("--degree must be at least 1")
    if args.nodes < args.degree + 1:
        raise UsageError("--nodes must be at least --degree + 1")
    if args.cap_min < 1 or args.cap_max < args.cap_min:
        raise UsageError("capacity range must satisfy 1 <= cap-min <= cap-max")
    records = generate_synthetic(args.nodes, args.degree, (args.cap_min, args.cap_max), args.seed)
    write_snapshot(records, args.output)
    print(f"wrote {len(records)} channels over {args.nodes} nodes to {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        config = SimulationConfig(
            seed=args.seed,
            strategy=Strategy(args.strategy),
            cycle_cap=args.cycle_cap,
            agreement_mode=args.agreement,
            require_sink_condition=not args.relax_sink,
            mpp_divisor=args.mpp_divisor,
            min_amount=args.min_amount,
            max_operations=args.max_operations,
            convergence_epsilon=args.epsilon,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    outdir = Path(args.outdir)
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        raise UsageError(f"--outdir {outdir} exists and is not an empty directory")
    records = load_snapshot(args.input)
    if not records:
        print(f"error: {args.input}: empty snapshot", file=sys.stderr)
        return EXIT_DATA
    g = largest_scc(allocate_funds_coinflip(records, args.seed))
    if g.num_nodes() < 2:
        print("error: no rebalancing possible (largest SCC is trivial)", file=sys.stderr)
        return EXIT_DATA

    target = outdir.resolve()
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
    try:
        # a plain mkdir gives the bundle the usual permissions; mkdtemp's are 0700
        bundle = staging / target.name
        bundle.mkdir()
        result = _write_bundle(bundle, args.input, config, g)
        os.replace(bundle, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    final = network_imbalance(result.graph)
    print(
        f"executed {len(result.operations)} operations; "
        f"imbalance {result.samples[0].imbalance:.4f} -> {final:.4f}; "
        f"bundle in {outdir}"
    )
    return EXIT_OK


def _write_bundle(
    bundle: Path, input_path: str, config: SimulationConfig, g: NetworkGraph
) -> SimulationResult:
    """Run the simulation on `g` and write every file of its bundle into `bundle`."""
    manifest = {
        "code_version": __version__,
        "config": {**dataclasses.asdict(config), "strategy": config.strategy.value},
        "input": {"path": str(input_path), "sha256": _sha256(input_path)},
        "outputs": SIMULATE_OUTPUTS,
    }
    _write_json(bundle / "manifest.json", manifest)
    write_state(g, bundle / "initial_state.csv")

    routes = RouteCache(g)

    def sample(snap):
        report = evaluate_network(snap, routes=routes)
        return {
            "success_rate": report.success_rate,
            "median_payment_sat": float(report.median_payment_sat),
        }

    result = run_simulation(g, config, sample)

    write_state(result.graph, bundle / "final_state.csv")
    with open(bundle / "operations.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for op in result.operations:
            fh.write(
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
    with open(bundle / "metrics.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ops_count", "imbalance", "success_rate", "median_payment_sat"])
        for sample in result.samples:
            writer.writerow(
                [
                    sample.ops_count,
                    repr(sample.imbalance),
                    repr(sample.metrics["success_rate"]),
                    int(sample.metrics["median_payment_sat"]),
                ]
            )
    with open(bundle / "fees.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "net_fee_msat"])
        for node in result.graph.nodes():
            writer.writerow([g.label(node), result.ledger.net(node)])
    return result


def cmd_evaluate(args) -> int:
    if args.amount < 1:
        raise UsageError("--amount must be at least 1")
    if args.sample_pairs is not None and args.sample_pairs < 1:
        raise UsageError("--sample-pairs must be at least 1")
    g = load_state(args.input)
    report = evaluate_network(
        g,
        amount=args.amount,
        sample_pairs=args.sample_pairs,
        seed=args.seed,
    )
    obj = {
        "success_rate": report.success_rate,
        "median_payment_sat": report.median_payment_sat,
        "network_imbalance": report.network_imbalance,
        "amount_sat": report.amount_sat,
        "sampled_pairs": report.sampled_pairs,
        "gini_values": report.gini_values,
    }
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            baseline = json.load(fh)
        obj["ks_distance_vs_baseline"] = ks_distance(report.gini_values, baseline["gini_values"])

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", obj)
    with open(outdir / "payment_size_cdf.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value", "cumulative_fraction"])
        for value, frac in report.payment_size_cdf:
            writer.writerow([value, repr(frac)])
    with open(outdir / "gini_cdf.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value", "cumulative_fraction"])
        for value, frac in cdf_points(report.gini_values):
            writer.writerow([repr(float(value)), repr(frac)])

    line = (
        f"success_rate {report.success_rate:.4f}, "
        f"median_payment {report.median_payment_sat} sat, "
        f"imbalance {report.network_imbalance:.4f}"
    )
    if "ks_distance_vs_baseline" in obj:
        line += f", ks_vs_baseline {obj['ks_distance_vs_baseline']:.4f}"
    print(line)
    return EXIT_OK


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        raise AssertionError("unreachable")
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
