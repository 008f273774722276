"""Snapshot loading, fund allocation, SCC filtering, synthetic networks.

The portable snapshot formats are CSV (header
``node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm``) and JSONL with
the same five keys.  A state file is the CSV form extended with
``balance_a_sat,balance_b_sat`` so a simulated network can be re-loaded
for evaluation.  Every CSV file is read by one reader and written by
:func:`write_csv`, so a node id is written and re-loaded unchanged
whatever line-break characters it holds (``\\n``, U+2028, U+0085, U+001C
and the like); a JSONL line ends only at ``\\n``, ``\\r`` or ``\\r\\n``.  A
node id may not hold a carriage return, which ``csv.writer`` before
Python 3.13 writes unquoted.  A malformed row raises
:class:`SnapshotError` naming the line the row ends on (a quoted field
may span lines).  Everything here is a pure function of its inputs and
the seed: loading, allocating and filtering the same bytes twice yields
the same graph.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .model import DEFAULT_BASE_FEE_MSAT, DEFAULT_FEE_RATE_PPM, MAX_CAPACITY_SAT, Channel, NetworkGraph

SNAPSHOT_COLUMNS = ["node_a", "node_b", "capacity_sat", "base_fee_msat", "fee_rate_ppm"]
STATE_COLUMNS = SNAPSHOT_COLUMNS + ["balance_a_sat", "balance_b_sat"]

T = TypeVar("T")


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
        if "\r" in self.node_a or "\r" in self.node_b:
            raise ValueError("a node id may not contain a carriage return")
        if not 0 < self.capacity_sat <= MAX_CAPACITY_SAT:
            raise ValueError(f"capacity must be in 1..{MAX_CAPACITY_SAT}, got {self.capacity_sat}")
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
    if len(fields) < len(SNAPSHOT_COLUMNS):
        raise ValueError(f"expected at least 5 fields, got {len(fields)}")
    return SnapshotRecord(
        node_a=fields[0],
        node_b=fields[1],
        capacity_sat=_parse_int(fields[2], "capacity_sat"),
        base_fee_msat=_parse_int(fields[3], "base_fee_msat", DEFAULT_BASE_FEE_MSAT),
        fee_rate_ppm=_parse_int(fields[4], "fee_rate_ppm", DEFAULT_FEE_RATE_PPM),
    )


def _read_csv(path: Path, header_ok: Callable[[list[str]], bool], header_error: str,
              parse_row: Callable[[list[str]], T]) -> list[T] | None:
    """`parse_row` of every row after the header, in file order; None for a file without rows.

    Blank rows are skipped.  A header failing `header_ok`, a `ValueError`
    from `parse_row` or a row the csv module refuses raises
    :class:`SnapshotError` naming the line the row ends on.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        try:
            header = next(rows, None)
            if header is None:
                return None
            if not header_ok([h.strip() for h in header]):
                raise ValueError(header_error)
            return [parse_row(row) for row in rows]
        except UnicodeDecodeError:
            raise  # text is decoded in blocks, so no line can be named
        except (ValueError, csv.Error) as exc:
            raise SnapshotError(f"{path}:{reader.line_num}: {exc}") from None


def is_jsonl(path: str | Path) -> bool:
    """True when the suffix of `path` is ``.jsonl`` or ``.json``, in any case."""
    return Path(path).suffix.lower() in (".jsonl", ".json")


def load_snapshot(path: str | Path) -> list[SnapshotRecord]:
    """Read snapshot records in file order; duplicates stay parallel channels.

    The format follows the file suffix: JSONL where :func:`is_jsonl`,
    anything else CSV.  Malformed rows raise :class:`SnapshotError`
    naming the line number.
    """
    path = Path(path)
    if is_jsonl(path):
        return _load_jsonl(path)
    header_error = f"expected header starting with {','.join(SNAPSHOT_COLUMNS)}"
    return _read_csv(path, lambda header: header[: len(SNAPSHOT_COLUMNS)] == SNAPSHOT_COLUMNS,
                     header_error, _record_from_fields) or []


def _load_jsonl(path: Path) -> list[SnapshotRecord]:
    records = []
    # a text file splits lines only at \n, \r and \r\n, which JSON escapes inside strings
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header and rows as CSV: UTF-8, LF line endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_snapshot(records: Iterable[SnapshotRecord], path: str | Path) -> None:
    """Write records as snapshot CSV; a JSONL name (see :func:`is_jsonl`) raises ValueError."""
    if is_jsonl(path):
        raise ValueError(f"{path}: a snapshot is written as CSV; its name may not end in .jsonl or .json")
    rows = ([r.node_a, r.node_b, r.capacity_sat, r.base_fee_msat, r.fee_rate_ppm] for r in records)
    write_csv(path, SNAPSHOT_COLUMNS, rows)


def write_state(g: NetworkGraph, path: str | Path) -> None:
    """Write a graph with balances as extended snapshot CSV, by channel id."""
    rows = (
        [g.label(ch.node_a), g.label(ch.node_b), ch.capacity, ch.base_fee_msat, ch.fee_rate_ppm,
         ch.balance_a, ch.balance_b]
        for _, ch in sorted(g.channels.items())
    )
    write_csv(path, STATE_COLUMNS, rows)


class _GraphBuilder:
    """Numbers channels in the order added and nodes in order of first appearance."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.channels: list[Channel] = []

    def add(self, rec: SnapshotRecord, balance_a: int, balance_b: int) -> None:
        a = self.ids.setdefault(rec.node_a, len(self.ids))
        b = self.ids.setdefault(rec.node_b, len(self.ids))
        self.channels.append(Channel(len(self.channels), a, b, rec.capacity_sat, balance_a, balance_b,
                                     rec.base_fee_msat, rec.fee_rate_ppm))

    def graph(self) -> NetworkGraph:
        return NetworkGraph(self.channels, labels=dict(enumerate(self.ids)))


def load_state(path: str | Path) -> NetworkGraph:
    """Read an extended snapshot CSV (balances included) into a graph."""
    path = Path(path)
    builder = _GraphBuilder()

    def add_row(row: list[str]) -> None:
        if len(row) != len(STATE_COLUMNS):
            raise ValueError(f"expected 7 fields, got {len(row)}")
        rec = _record_from_fields(row)
        builder.add(rec, _parse_int(row[5], "balance_a_sat"), _parse_int(row[6], "balance_b_sat"))

    header_error = f"state file needs balances; expected header {','.join(STATE_COLUMNS)}"
    if _read_csv(path, lambda header: header == STATE_COLUMNS, header_error, add_row) is None:
        raise SnapshotError(f"{path}:1: empty state file")
    return builder.graph()


def allocate_funds_coinflip(records: Sequence[SnapshotRecord], seed: int) -> NetworkGraph:
    """Assign each channel's full capacity to one endpoint by a fair coin.

    Node ids are ordinals in order of first appearance; the coin flips come
    from one seeded generator consumed in record order, so the same records
    and seed always reproduce the same allocation.
    """
    rng = random.Random(seed)
    builder = _GraphBuilder()
    for rec in records:
        a_funds = rng.getrandbits(1) == 0
        builder.add(rec, rec.capacity_sat if a_funds else 0, 0 if a_funds else rec.capacity_sat)
    return builder.graph()


def liquidity_arcs(g: NetworkGraph) -> dict[int, list[int]]:
    """Directed arcs u->v where u holds positive balance on some (u,v) channel."""
    arcs: dict[int, set[int]] = {u: set() for u in g.nodes()}
    for ch in g.channels.values():
        if ch.balance_a > 0:
            arcs[ch.node_a].add(ch.node_b)
        if ch.balance_b > 0:
            arcs[ch.node_b].add(ch.node_a)
    return {u: sorted(vs) for u, vs in arcs.items()}


def _postorder(root: int, succ: dict[int, list[int]], seen: set[int], out: list[int]) -> None:
    """Depth-first from `root` through nodes not in `seen`: add each to `seen`, and
    append it to `out` once its successors are done.  Iterative: snapshot graphs are deep."""
    seen.add(root)
    stack = [(root, iter(succ[root]))]
    while stack:
        v, children = stack[-1]
        for w in children:
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
            out.append(v)


def _sccs(nodes: Sequence[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components by Kosaraju's two depth-first passes."""
    finished: list[int] = []
    seen: set[int] = set()
    for root in nodes:
        if root not in seen:
            _postorder(root, succ, seen, finished)
    pred: dict[int, list[int]] = {u: [] for u in nodes}
    for u in nodes:
        for w in succ[u]:
            pred[w].append(u)
    # latest finish first, what a root reaches backwards that no earlier root took is its component
    sccs: list[list[int]] = []
    seen.clear()
    for root in reversed(finished):
        if root not in seen:
            sccs.append([])
            _postorder(root, pred, seen, sccs[-1])
    return sccs


def largest_scc(g: NetworkGraph) -> NetworkGraph:
    """Subgraph induced by the largest SCC of the liquidity digraph.

    The digraph has an arc u->v iff u can push value toward v (positive
    balance on some shared channel).  Ties between equally sized
    components go to the one containing the smallest node id.  Channels
    with both endpoints inside the component are retained, as new
    `Channel` objects, so the result shares no balance with `g`; nodes
    left without channels are dropped.
    """
    nodes = g.nodes()
    if not nodes:
        raise ValueError("largest_scc of an empty graph")
    sccs = _sccs(nodes, liquidity_arcs(g))
    best = max(sccs, key=lambda comp: (len(comp), -min(comp)))
    keep = set(best)
    # a positional call: `dataclasses.replace` introspects every field per copy
    copies = (
        Channel(ch.cid, ch.node_a, ch.node_b, ch.capacity, ch.balance_a, ch.balance_b,
                ch.base_fee_msat, ch.fee_rate_ppm)
        for ch in g.channels.values()
        if ch.node_a in keep and ch.node_b in keep
    )
    return NetworkGraph(copies, labels=g.labels)


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
    Raises `ValueError` unless attach_degree >= 1, n_nodes >=
    attach_degree + 1 and 1 <= low <= high <= `MAX_CAPACITY_SAT`.
    """
    m = attach_degree
    if m < 1:
        raise ValueError("attach_degree must be at least 1")
    if n_nodes < m + 1:
        raise ValueError("n_nodes must be at least attach_degree + 1")
    cap_lo, cap_hi = capacity_range
    if not 1 <= cap_lo <= cap_hi <= MAX_CAPACITY_SAT:
        raise ValueError(f"capacity range must satisfy 1 <= low <= high <= {MAX_CAPACITY_SAT}, got {capacity_range}")
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
