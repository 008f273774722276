"""Snapshot loading, fund allocation, SCC filtering, synthetic networks.

The portable snapshot formats are CSV (header
``node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm``) and JSONL with
the same five keys.  A state file is the CSV form extended with
``balance_a_sat,balance_b_sat`` so a simulated network can be re-loaded
for evaluation.  Everything here is a pure function of its inputs and the
seed: loading, allocating and filtering the same bytes twice yields the
same graph.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .model import Channel, NetworkGraph

SNAPSHOT_COLUMNS = ["node_a", "node_b", "capacity_sat", "base_fee_msat", "fee_rate_ppm"]
STATE_COLUMNS = SNAPSHOT_COLUMNS + ["balance_a_sat", "balance_b_sat"]

DEFAULT_BASE_FEE_MSAT = 1000
DEFAULT_FEE_RATE_PPM = 1


class SnapshotError(ValueError):
    """A snapshot file could not be parsed or failed validation."""


@dataclass(frozen=True)
class SnapshotRecord:
    """One public channel of a snapshot: endpoints, capacity and fees."""

    node_a: str
    node_b: str
    capacity_sat: int
    base_fee_msat: int = DEFAULT_BASE_FEE_MSAT
    fee_rate_ppm: int = DEFAULT_FEE_RATE_PPM

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError(f"self-channel on node {self.node_a!r}")
        if self.capacity_sat <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_sat}")
        if self.base_fee_msat < 0 or self.fee_rate_ppm < 0:
            raise ValueError("fee parameters must be non-negative")


def _parse_int(raw: str, name: str, default: int | None = None) -> int:
    if raw == "" and default is not None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} is not an integer: {raw!r}") from None


def _record_from_fields(fields: Sequence[str]) -> SnapshotRecord:
    return SnapshotRecord(
        node_a=fields[0],
        node_b=fields[1],
        capacity_sat=_parse_int(fields[2], "capacity_sat"),
        base_fee_msat=_parse_int(fields[3], "base_fee_msat", DEFAULT_BASE_FEE_MSAT),
        fee_rate_ppm=_parse_int(fields[4], "fee_rate_ppm", DEFAULT_FEE_RATE_PPM),
    )


def load_snapshot(path: str | Path) -> list[SnapshotRecord]:
    """Read snapshot records in file order; duplicates stay parallel channels.

    The format follows the file suffix: ``.jsonl``/``.json`` means JSONL,
    anything else CSV.  Malformed rows raise :class:`SnapshotError`
    naming the line number.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        return []
    if path.suffix.lower() in (".jsonl", ".json"):
        return _load_jsonl(text, path)
    return _load_csv(text, path)


def _load_csv(text: str, path: Path) -> list[SnapshotRecord]:
    rows = list(csv.reader(text.splitlines()))
    header = [h.strip() for h in rows[0]]
    if header[: len(SNAPSHOT_COLUMNS)] != SNAPSHOT_COLUMNS:
        raise SnapshotError(
            f"{path}:1: expected header starting with {','.join(SNAPSHOT_COLUMNS)}"
        )
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < len(SNAPSHOT_COLUMNS):
            raise SnapshotError(f"{path}:{lineno}: expected at least 5 fields, got {len(row)}")
        try:
            records.append(_record_from_fields(row))
        except ValueError as exc:
            raise SnapshotError(f"{path}:{lineno}: {exc}") from None
    return records


def _load_jsonl(text: str, path: Path) -> list[SnapshotRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            # the CSV field parser, so both formats share one rule per field
            fields = [str(obj[key]) for key in SNAPSHOT_COLUMNS[:3]]
            fields += [str(obj.get(key, "")) for key in SNAPSHOT_COLUMNS[3:]]
            records.append(_record_from_fields(fields))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"{path}:{lineno}: {exc}") from None
    return records


def write_snapshot(records: Iterable[SnapshotRecord], path: str | Path) -> None:
    """Write records as snapshot CSV (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SNAPSHOT_COLUMNS)
        for rec in records:
            writer.writerow(
                [rec.node_a, rec.node_b, rec.capacity_sat, rec.base_fee_msat, rec.fee_rate_ppm]
            )


def write_state(g: NetworkGraph, path: str | Path) -> None:
    """Write a graph with balances as extended snapshot CSV, by channel id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STATE_COLUMNS)
        for cid in sorted(g.channels):
            ch = g.channels[cid]
            writer.writerow(
                [
                    g.label(ch.node_a),
                    g.label(ch.node_b),
                    ch.capacity,
                    ch.base_fee_msat,
                    ch.fee_rate_ppm,
                    ch.balance_a,
                    ch.balance_b,
                ]
            )


def load_state(path: str | Path) -> NetworkGraph:
    """Read an extended snapshot CSV (balances included) into a graph."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise SnapshotError(f"{path}:1: empty state file")
    header = [h.strip() for h in rows[0]]
    if header != STATE_COLUMNS:
        raise SnapshotError(
            f"{path}:1: state file needs balances; expected header {','.join(STATE_COLUMNS)}"
        )
    ids: dict[str, int] = {}
    labels: dict[int, str] = {}
    channels = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(STATE_COLUMNS):
            raise SnapshotError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
        try:
            rec = _record_from_fields(row[:5])
            balance_a = _parse_int(row[5], "balance_a_sat")
            balance_b = _parse_int(row[6], "balance_b_sat")
            a = _intern_node(rec.node_a, ids, labels)
            b = _intern_node(rec.node_b, ids, labels)
            channels.append(
                Channel(
                    cid=len(channels),
                    node_a=a,
                    node_b=b,
                    capacity=rec.capacity_sat,
                    balance_a=balance_a,
                    balance_b=balance_b,
                    base_fee_msat=rec.base_fee_msat,
                    fee_rate_ppm=rec.fee_rate_ppm,
                )
            )
        except ValueError as exc:
            raise SnapshotError(f"{path}:{lineno}: {exc}") from None
    return NetworkGraph(channels, labels=labels)


def _intern_node(name: str, ids: dict[str, int], labels: dict[int, str]) -> int:
    node = ids.get(name)
    if node is None:
        node = len(ids)
        ids[name] = node
        labels[node] = name
    return node


def allocate_funds_coinflip(records: Sequence[SnapshotRecord], seed: int) -> NetworkGraph:
    """Assign each channel's full capacity to one endpoint by a fair coin.

    Node ids are ordinals in order of first appearance; the coin flips come
    from one seeded generator consumed in record order, so the same records
    and seed always reproduce the same allocation.
    """
    rng = random.Random(seed)
    ids: dict[str, int] = {}
    labels: dict[int, str] = {}
    channels = []
    for rec in records:
        a = _intern_node(rec.node_a, ids, labels)
        b = _intern_node(rec.node_b, ids, labels)
        a_funds = rng.getrandbits(1) == 0
        channels.append(
            Channel(
                cid=len(channels),
                node_a=a,
                node_b=b,
                capacity=rec.capacity_sat,
                balance_a=rec.capacity_sat if a_funds else 0,
                balance_b=0 if a_funds else rec.capacity_sat,
                base_fee_msat=rec.base_fee_msat,
                fee_rate_ppm=rec.fee_rate_ppm,
            )
        )
    return NetworkGraph(channels, labels=labels)


def liquidity_arcs(g: NetworkGraph) -> dict[int, list[int]]:
    """Directed arcs u->v where u holds positive balance on some (u,v) channel."""
    arcs: dict[int, set[int]] = {u: set() for u in g.nodes()}
    for ch in g.channels.values():
        if ch.balance_a > 0:
            arcs[ch.node_a].add(ch.node_b)
        if ch.balance_b > 0:
            arcs[ch.node_b].add(ch.node_a)
    return {u: sorted(vs) for u, vs in arcs.items()}


def _tarjan_sccs(nodes: Sequence[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components, iteratively (snapshot graphs are deep)."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, child_i = work[-1]
            if child_i == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            children = succ[v]
            while child_i < len(children):
                w = children[child_i]
                child_i += 1
                if w not in index:
                    work[-1] = (v, child_i)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def largest_scc(g: NetworkGraph) -> NetworkGraph:
    """Subgraph induced by the largest SCC of the liquidity digraph.

    The digraph has an arc u->v iff u can push value toward v (positive
    balance on some shared channel).  Ties between equally sized
    components go to the one containing the smallest node id.  Channels
    with both endpoints inside the component are retained; nodes left
    without channels are dropped.
    """
    nodes = g.nodes()
    if not nodes:
        raise ValueError("largest_scc of an empty graph")
    arcs = liquidity_arcs(g)
    sccs = _tarjan_sccs(nodes, arcs)
    best = max(sccs, key=lambda comp: (len(comp), -min(comp)))
    keep = set(best)
    channels = [ch for ch in g.channels.values() if ch.node_a in keep and ch.node_b in keep]
    return NetworkGraph((replace(ch) for ch in channels), labels=g.labels)


def generate_synthetic(
    n_nodes: int,
    attach_degree: int,
    capacity_range: tuple[int, int],
    seed: int,
) -> list[SnapshotRecord]:
    """Preferential-attachment snapshot with log-uniform capacities.

    Starts from `attach_degree` unconnected seed nodes; the first added
    node links to all of them and every later node attaches to
    `attach_degree` distinct existing nodes sampled proportionally to
    degree.  Total edges: attach_degree * (n_nodes - attach_degree).
    """
    m = attach_degree
    if m < 1:
        raise ValueError("attach_degree must be at least 1")
    if n_nodes < m + 1:
        raise ValueError("n_nodes must be at least attach_degree + 1")
    cap_lo, cap_hi = capacity_range
    if cap_lo <= 0 or cap_hi < cap_lo:
        raise ValueError(f"invalid capacity range {capacity_range}")
    rng = random.Random(seed)
    width = len(str(n_nodes - 1))

    def label(i: int) -> str:
        return f"n{i:0{width}d}"

    def capacity() -> int:
        value = int(round(math.exp(rng.uniform(math.log(cap_lo), math.log(cap_hi)))))
        return min(max(value, cap_lo), cap_hi)

    records = []
    # one endpoint entry per unit of degree; drives the attachment weights
    repeated: list[int] = []
    for target in range(m):
        records.append(SnapshotRecord(label(m), label(target), capacity()))
        repeated.extend((m, target))
    for i in range(m + 1, n_nodes):
        targets: list[int] = []
        while len(targets) < m:
            t = rng.choice(repeated)
            if t not in targets:
                targets.append(t)
        for t in targets:
            records.append(SnapshotRecord(label(i), label(t), capacity()))
        repeated.extend(targets)
        repeated.extend([i] * m)
    return records
