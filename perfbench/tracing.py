"""Span tracing of lnbalance's layers from outside the package.

Tracing wraps the public functions each layer exposes, at the module
attribute its caller looks up (``lnbalance.rebalancer.enumerate_cycles``
for the simulation loop, ``lnbalance.cli.evaluate_network`` for the eval
hooks of the simulate command, and so on), so no file of the package is
edited.  Each wrapped call records one span ``(name, start, end, parent)``
in memory; spans are written to disk only when the benchmark ends.

A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from lnbalance import cli, ingestion, rebalancer

# (module, attribute, span name).  The span name is the layer that owns the
# function, then the function; the module is where the caller looks it up.
PATCH_POINTS = [
    (cli, "load_snapshot", "ingestion.load_snapshot"),
    (ingestion, "load_snapshot", "ingestion.load_snapshot"),
    (cli, "allocate_funds_coinflip", "ingestion.allocate_funds_coinflip"),
    (ingestion, "allocate_funds_coinflip", "ingestion.allocate_funds_coinflip"),
    (cli, "largest_scc", "ingestion.largest_scc"),
    (ingestion, "largest_scc", "ingestion.largest_scc"),
    (cli, "write_state", "ingestion.write_state"),
    (cli, "run_simulation", "rebalancer.run_simulation"),
    (rebalancer, "run_simulation", "rebalancer.run_simulation"),
    (rebalancer, "candidate_channels", "rebalancer.candidate_channels"),
    (rebalancer, "enumerate_cycles", "cycles.enumerate_cycles"),
    # only the agreement search calls gini from rebalancer: one call per probe
    (rebalancer, "gini", "model.gini"),
    (rebalancer, "node_gini", "model.node_gini"),
    (rebalancer, "apply_circular_payment", "model.apply_circular_payment"),
    (cli, "evaluate_network", "evaluation.evaluate_network"),
]


class Tracer:
    """In-memory span recorder for one traced execution."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """`fn` recording one span per call, plus its counter if it has one."""
        spans = self.spans
        stack = self._stack
        counted = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counted is not None:
                counter, measure = counted
                self.count(counter, measure(args, result))
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


def _evaluated_pairs(args, result) -> int:
    n = args[0].num_nodes()
    return n * (n - 1)


_COUNTERS = {
    "cycles.enumerate_cycles": ("cycles.candidates", lambda args, result: len(result)),
    "evaluation.evaluate_network": ("evaluation.pairs", _evaluated_pairs),
}


@contextmanager
def traced(tracer: Tracer):
    """Route every patch point through `tracer` for the duration."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCH_POINTS]
    try:
        for module, attr, name in PATCH_POINTS:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


@contextmanager
def counting_candidates(counters: dict[str, int]):
    """Count enumerated cycle candidates without timing anything.

    Used on untraced runs so every result can report how many
    candidates were built; it adds one Python call per enumeration.
    """
    original = rebalancer.enumerate_cycles

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        counters["candidates"] = counters.get("candidates", 0) + len(result)
        return result

    rebalancer.enumerate_cycles = counted
    try:
        yield counters
    finally:
        rebalancer.enumerate_cycles = original


def layer_metrics(totals: dict[str, dict[str, float]], counters: dict[str, int], run_s: float, ops: int, bundle_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one or more traced executions, summed."""

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    candidates = counters.get("cycles.candidates", 0)
    eval_s = self_s("evaluation.evaluate_network")
    return {
        "ingestion.load_s": self_s("ingestion.load_snapshot"),
        "ingestion.allocate_s": self_s("ingestion.allocate_funds_coinflip"),
        "ingestion.scc_s": self_s("ingestion.largest_scc"),
        "ingestion.write_state_s": self_s("ingestion.write_state"),
        "cycles.enumerate_calls": calls("cycles.enumerate_cycles"),
        "cycles.enumerate_s": self_s("cycles.enumerate_cycles"),
        "cycles.candidates": candidates,
        "cycles.useful_ratio": ops / candidates if candidates else 0.0,
        "rebalancer.candidate_channels_calls": calls("rebalancer.candidate_channels"),
        "rebalancer.candidate_channels_s": self_s("rebalancer.candidate_channels"),
        "rebalancer.self_s": self_s("rebalancer.run_simulation"),
        "rebalancer.gini_probes": calls("model.gini"),
        "rebalancer.gini_probe_s": self_s("model.gini"),
        "model.node_gini_calls": calls("model.node_gini"),
        "model.node_gini_s": self_s("model.node_gini"),
        "model.apply_calls": calls("model.apply_circular_payment"),
        "model.apply_s": self_s("model.apply_circular_payment"),
        "evaluation.calls": calls("evaluation.evaluate_network"),
        "evaluation.s": eval_s,
        "evaluation.share": eval_s / run_s if run_s else 0.0,
        "evaluation.pairs_per_s": counters.get("evaluation.pairs", 0) / eval_s if eval_s else 0.0,
        "cli.self_s": self_s("cli.simulate"),
        "cli.bundle_bytes": bundle_bytes,
    }


def write_spans(path: Path, executions: list[tuple[dict, Tracer]]) -> None:
    """One header line per traced execution, then one line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for header, tracer in executions:
            fh.write(json.dumps({"execution": header, "spans": len(tracer.spans)}) + "\n")
            for name, start, end, parent in tracer.spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')
