"""Measurement loops of one benchmark run, and the result they produce."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy

import lnbalance
import tracing
from speed import Timed
from workloads import Instance, Outcome, Workload, execute, make_instances, setup_graph

SETUP_REPEATS = 5
MIN_REPEATS = 2
CEILING = 1.2


class Executions:
    """Every execution of the run, per instance, with the gate's verdicts."""

    def __init__(self, instances: list[Instance]):
        self.instances = instances
        self.ok: dict[int, list[Outcome]] = {inst.index: [] for inst in instances}
        self.candidates: dict[int, int] = {}
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, w: Workload, inst: Instance, tracer=None) -> Outcome | None:
        self.attempted += 1
        try:
            outcome = execute(w, inst, tracer)
        except Exception:
            self._fail(inst, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return None
        failures = list(outcome.failures)
        earlier = self.ok[inst.index]
        if earlier and outcome.digest != earlier[0].digest:
            failures.append("operations differ from the first execution of this instance")
        if failures:
            self._fail(inst, "; ".join(failures))
            return None
        earlier.append(outcome)
        return outcome

    def _fail(self, inst: Instance, why: str) -> None:
        self.failures.append(f"instance {inst.index} (seed {inst.seed}): {why}")

    @property
    def failed(self) -> int:
        return self.attempted - sum(len(v) for v in self.ok.values())

    def min_repeats(self) -> int:
        return min(len(v) for v in self.ok.values())

    def per_instance(self) -> list[dict]:
        out = []
        for inst in self.instances:
            outcomes = self.ok[inst.index]
            first = outcomes[0] if outcomes else None
            out.append(
                {
                    "index": inst.index,
                    "seed": inst.seed,
                    "nodes": first.nodes if first else None,
                    "channels": first.channels if first else None,
                    "ops": first.ops if first else None,
                    "candidates": self.candidates.get(inst.index),
                    "final_imbalance": first.final_imbalance if first else None,
                    "operations_digest": first.digest if first else None,
                    "run_s": [o.run_s for o in outcomes],
                    "wall_s": [o.wall_s for o in outcomes],
                }
            )
        return out


def run(w: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    workdir = out / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        execs = Executions(make_instances(w, seed, workdir))
        if trace:
            metrics = _traced_loop(w, execs, seconds, out / "traces" / f"{w.name}-seed{seed}.jsonl")
        else:
            metrics = _untraced_loop(w, execs, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "attempted": execs.attempted,
        "failed": execs.failed,
        "failures": execs.failures,
        "metrics": metrics,
        "operations_digest": _combined_digest(execs),
        "context": _context(w, seed, execs),
    }
    path = out / "results" / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    result["path"] = path
    return result


def _untraced_loop(w: Workload, execs: Executions, seconds: float) -> dict:
    """Round-robin over the instances until `seconds` passed and each ran twice.

    A run stops anyway at CEILING times `seconds` once each instance ran.
    Set-up is timed SETUP_REPEATS times before each execution of the first
    pass.  Times are reference seconds (speed.py); an instance's run time
    is the fastest of its executions, which drops the short stalls the
    probes miss.
    """
    setup_samples = execs.setup_samples
    counters: dict[str, int] = {}
    with tracing.counting_candidates(counters):
        start = time.perf_counter()
        for inst in itertools.cycle(execs.instances):
            if execs.attempted < len(execs.instances):
                raw = []
                with Timed() as timed:
                    for _ in range(SETUP_REPEATS):
                        t0 = time.perf_counter()
                        setup_graph(inst)
                        raw.append(time.perf_counter() - t0)
                setup_samples.extend(r * timed.scale for r in raw)
            before = counters.get("candidates", 0)
            if execs.run(w, inst) is not None:
                execs.candidates[inst.index] = counters["candidates"] - before
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (execs.min_repeats() >= MIN_REPEATS or execs.failed):
                break
            # on a slowed host two passes may not fit: stop once every instance
            # ran and the second pass began, so some instance was repeated
            if elapsed >= CEILING * seconds and execs.min_repeats() >= 1 and execs.attempted > len(execs.instances):
                break
    best = [min(o.run_s for o in v) for v in execs.ok.values() if v]
    ops = [v[0].ops for v in execs.ok.values() if v]
    complete = len(best) == len(execs.instances)
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.fmean(best) if complete else None,
        "ops_per_s": sum(ops) / sum(best) if complete else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_imbalance": statistics.fmean(v[0].final_imbalance for v in execs.ok.values()) if complete else None,
    }


def _traced_loop(w: Workload, execs: Executions, seconds: float, spans_path: Path) -> dict:
    """Passes of (untraced, traced) per instance; per-layer medians over passes.

    Layer times are scaled to reference seconds with their execution's
    probe, like run_s.
    """
    passes = []
    kept_spans = []
    start = time.perf_counter()
    while True:
        totals: dict[str, dict[str, float]] = {}
        counters: dict[str, int] = {}
        untraced_s = traced_s = 0.0
        ops = bundle_bytes = 0
        for inst in execs.instances:
            plain = execs.run(w, inst)
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                outcome = execs.run(w, inst, tracer)
            if plain is None or outcome is None:
                continue
            execs.candidates[inst.index] = tracer.counters.get("cycles.candidates", 0)
            for name, entry in tracer.totals().items():
                acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                acc["calls"] += entry["calls"]
                acc["total_s"] += entry["total_s"] * outcome.scale
                acc["self_s"] += entry["self_s"] * outcome.scale
            for name, value in tracer.counters.items():
                counters[name] = counters.get(name, 0) + value
            untraced_s += plain.run_s
            traced_s += outcome.run_s
            ops += outcome.ops
            bundle_bytes += outcome.bundle_bytes
            if not passes:
                kept_spans.append(({"instance": inst.index, "seed": inst.seed}, tracer))
        metrics = tracing.layer_metrics(totals, counters, traced_s, ops, bundle_bytes)
        metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else None
        passes.append(metrics)
        elapsed = time.perf_counter() - start
        # stop before a pass that would end past `seconds`
        if elapsed * (len(passes) + 1) / len(passes) > seconds or execs.failed:
            break
    tracing.write_spans(spans_path, kept_spans)
    return {
        name: statistics.median(p[name] for p in passes) if all(p[name] is not None for p in passes) else None
        for name in passes[0]
    }


def _combined_digest(execs: Executions) -> str | None:
    digests = [v[0].digest for v in execs.ok.values() if v]
    if len(digests) != len(execs.instances):
        return None
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def _git_commit() -> str | None:
    root = Path(__file__).resolve().parent.parent
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _context(w: Workload, seed: int, execs: Executions) -> dict:
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lnbalance": lnbalance.__version__,
        "seed": seed,
        "workload": asdict(w),
        "instances": execs.per_instance(),
        "setup_samples": execs.setup_samples,
    }
