"""Command line front end: generate, simulate, evaluate.

`gen` writes a synthetic snapshot CSV, `simulate` runs the full pipeline
(allocate funds, keep the largest strongly connected component, rebalance)
and writes a result bundle, `evaluate` computes payment metrics on any
state file.  Every command is deterministic under its seeds.  A
`simulate` bundle holds a manifest (config, input hash, output names) and
exactly the files it names.  Both `simulate` and `evaluate` build their
output in a temporary sibling directory and rename it onto `--outdir`
once every file is written, so it appears whole or not at all.  An
existing `--outdir` must be an empty directory: a non-empty one exits 2
before any input is read, and a file exits 3.  Neither command creates
missing parent directories; a missing parent exits 3 and creates nothing.

`simulate` stores each flag under the name of its `SimulationConfig`
field and takes every default from `SimulationConfig`.

`simulate` evaluates payment ability once per metrics sample over all
pairs, through one route cache of the run's graph and all its nodes, so
the cheapest-path trees are built at the first sample and every later
one reuses them; a sample keeps the success rate and median only, so it
builds no payment-size CDF.  `evaluate --sample-pairs N` takes its
payment metrics from every pair of min(n, ceil(N / (n - 1))) sources
drawn with `--seed` from the n nodes, and its report adds
`success_rate_se`, the standard error of the sampled success rate (null
for a single source).

Exit codes: 0 success, 2 usage, 3 input data error, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from . import __version__
from .cycles import Strategy
from .evaluation import RouteCache, cdf_points, evaluate_network, ks_distance
from .ingestion import (
    SnapshotError,
    allocate_funds_coinflip,
    generate_synthetic,
    is_jsonl,
    largest_scc,
    load_snapshot,
    load_state,
    write_csv,
    write_snapshot,
    write_state,
)
from .model import InvariantViolation, NetworkGraph, gini_distribution, mean_gini
from .rebalancer import AGREEMENT_MODES, SimulationConfig, SimulationResult, run_simulation

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
    gen.add_argument("-o", "--output", required=True, help="snapshot CSV (not .jsonl or .json)")
    gen.set_defaults(func=cmd_gen)

    # an omitted flag leaves its SimulationConfig field at the field's default
    sim = sub.add_parser("simulate", help="run the rebalancing simulation",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("-i", "--input", required=True, help="snapshot CSV or JSONL")
    sim.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--cycle-cap", type=int)
    sim.add_argument("--agreement", dest="agreement_mode", choices=AGREEMENT_MODES)
    sim.add_argument("--mpp-divisor", type=int)
    sim.add_argument("--min-amount", type=int)
    sim.add_argument("--max-operations", type=int)
    sim.add_argument("--epsilon", dest="convergence_epsilon", type=float, metavar="EPSILON",
                     help="node Gini below this counts as even enough")
    sim.add_argument("--relax-sink", dest="require_sink_condition", action="store_false",
                     help="drop the sink-side condition on cycle ends")
    sim.add_argument("-o", "--outdir", required=True)
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("evaluate", help="evaluate a state file (balances required)")
    ev.add_argument("-i", "--input", required=True, help="extended snapshot CSV")
    ev.add_argument("--amount", type=int, default=1)
    ev.add_argument("--compare", help="report JSON to compare Gini samples against")
    ev.add_argument("--sample-pairs", type=int, default=None, metavar="N",
                    help="approximate pair metrics from every pair of "
                         "min(n, ceil(N / (n - 1))) sources sampled from the n nodes")
    ev.add_argument("--seed", type=int, default=0, help="seed for source sampling")
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
    if is_jsonl(args.output):
        raise UsageError("-o must not end in .jsonl or .json: gen writes CSV")
    try:
        records = generate_synthetic(args.nodes, args.degree, (args.cap_min, args.cap_max), args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_snapshot(records, args.output)
    print(f"wrote {len(records)} channels over {args.nodes} nodes to {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    try:
        config = SimulationConfig(**{k: v for k, v in vars(args).items() if k in fields})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _published(args.outdir) as bundle:
        records = load_snapshot(args.input)
        if not records:
            raise SnapshotError(f"{args.input}: empty snapshot")
        g = largest_scc(allocate_funds_coinflip(records, args.seed))
        if g.num_nodes() < 2:
            raise SnapshotError("no rebalancing possible (largest SCC is trivial)")
        result = _write_bundle(bundle, args.input, config, g)

    print(
        f"executed {len(result.operations)} operations; "
        f"imbalance {result.samples[0].imbalance:.4f} -> {result.samples[-1].imbalance:.4f}; "
        f"bundle in {Path(args.outdir)}"
    )
    return EXIT_OK


@contextlib.contextmanager
def _published(outdir: str) -> Iterator[Path]:
    """Yield an empty directory that becomes `outdir` when the block succeeds.

    The directory is made in a temporary sibling of `outdir` and renamed
    onto it at the end, so `outdir` appears whole or not at all.  An
    existing `outdir` must be an empty directory: a non-empty one is a
    usage error and any other file is refused with ``NotADirectoryError``,
    both before the block runs.  Missing parent directories are not
    created.
    """
    target = Path(outdir)
    if target.is_dir() and any(target.iterdir()):
        raise UsageError(f"--outdir {target} exists and is not an empty directory")
    if target.exists() and not target.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), outdir)
    target = target.resolve()
    # strict, so that a missing parent is reported by its own name
    staging = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent.resolve(strict=True)))
    try:
        # a plain mkdir gives the directory the usual permissions; mkdtemp's are 0700
        bundle = staging / target.name
        bundle.mkdir()
        yield bundle
        os.replace(bundle, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


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
        report = evaluate_network(snap, routes=routes, cdf=False)
        return report.success_rate, report.median_payment_sat

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
    write_csv(bundle / "metrics.csv", ["ops_count", "imbalance", "success_rate", "median_payment_sat"],
              ([s.ops_count, repr(s.imbalance), repr(s.metrics[0]), s.metrics[1]] for s in result.samples))
    write_csv(bundle / "fees.csv", ["node_id", "net_fee_msat"],
              ([g.label(node), result.ledger[node]] for node in result.graph.nodes()))
    return result


def _baseline_gini_values(path: str) -> list[float]:
    """The ``gini_values`` of an `evaluate` report, which must be a nonempty list of finite numbers."""
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    values = baseline.get("gini_values") if isinstance(baseline, dict) else None
    if not (
        isinstance(values, list)
        and values
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in values)
    ):
        raise SnapshotError(f"{path}: baseline is not an object whose gini_values is a nonempty list of finite numbers")
    return values


def cmd_evaluate(args) -> int:
    if args.amount < 1:
        raise UsageError("--amount must be at least 1")
    if args.sample_pairs is not None and args.sample_pairs < 1:
        raise UsageError("--sample-pairs must be at least 1")
    with _published(args.outdir) as outdir:
        baseline = _baseline_gini_values(args.compare) if args.compare else None
        g = load_state(args.input)
        report = evaluate_network(
            g,
            amount=args.amount,
            sample_pairs=args.sample_pairs,
            seed=args.seed,
        )
        gini_values = gini_distribution(g)
        imbalance = mean_gini(gini_values)
        obj = {
            "success_rate": report.success_rate,
            "median_payment_sat": report.median_payment_sat,
            "network_imbalance": imbalance,
            "amount_sat": report.amount_sat,
            "sampled_pairs": report.sampled_pairs,
            "gini_values": gini_values,
        }
        if report.sampled_pairs is not None:
            obj["success_rate_se"] = report.success_rate_se
        if baseline is not None:
            obj["ks_distance_vs_baseline"] = ks_distance(gini_values, baseline)
        _write_json(outdir / "report.json", obj)
        cdf_header = ["value", "cumulative_fraction"]
        write_csv(outdir / "payment_size_cdf.csv", cdf_header,
                  ([value, repr(frac)] for value, frac in report.payment_size_cdf))
        write_csv(outdir / "gini_cdf.csv", cdf_header,
                  ([repr(float(value)), repr(frac)] for value, frac in cdf_points(sorted(gini_values))))

    line = (
        f"success_rate {report.success_rate:.4f}, "
        f"median_payment {report.median_payment_sat} sat, "
        f"imbalance {imbalance:.4f}"
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
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
