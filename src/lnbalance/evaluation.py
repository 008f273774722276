"""Payment-ability metrics over a network snapshot.

Routing mimics a source-based payer: paths are chosen by total base fee
alone (balances are private and invisible to the router) and only then
checked against the true balances.  The bottleneck of a path is the
largest amount it can forward on the first attempt; a blocked path
bottlenecks at 0.  All pair statistics are over ordered pairs, since
liquidity is directional.

Route choice reads only the topology and the base fees, and a circular
payment changes neither: it moves balances alone.  So the cheapest-path
tree of each source stays valid for the whole of a simulation run.  A
:class:`RouteCache` holds the trees of one graph and of a source list
fixed when it is made, and builds them all at its first read, a block of
sources at a time in numpy: Bellman-Ford rounds on one int64 (fee, hops)
key per node and source, then, hop level by hop level, a tie-break by
the rank of each predecessor's path.  Each later read only takes the
current balances down the cached trees, one gather per hop level over
every source.  A sampled evaluation draws its sources first and builds
the trees of those alone.  Each source's own entry in its row is
unbounded and sorts last, so one sorted array, cut before those entries,
serves every statistic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import MAX_CAPACITY_SAT, NetworkGraph


@dataclass
class EvaluationReport:
    """Payment ability of one snapshot, over ordered (source, target) pairs.

    `success_rate` is the fraction of pairs whose cheapest path can
    forward `amount_sat`.  `median_payment_sat` is the median bottleneck,
    the lower middle value for an even count, with blocked pairs as 0.
    The pairs are all ordered pairs, or, when `sampled_pairs` is set, the
    pairs from each of a seeded sample of sources to every other node;
    `sampled_pairs` is then their number.  `success_rate_se` is the
    standard error of a sampled `success_rate`, and None for a full
    evaluation or a sample of one source.  `payment_size_cdf` is None
    when the evaluation was asked not to build it.
    """

    success_rate: float
    median_payment_sat: int
    payment_size_cdf: list[tuple[int, float]] | None
    amount_sat: int = 1
    sampled_pairs: int | None = None
    success_rate_se: float | None = None


_UNBOUNDED = MAX_CAPACITY_SAT  # Channel caps every capacity, so every balance, at this
_FAR = 2**62  # key of a node not reached yet; every real key lies below it
_BLOCK = 2**14  # int64 entries in one temporary: directed channels x sources, or level entries read


class RouteCache:
    """Cheapest-path trees of one graph, one per source, built on first use.

    The sources, node ids, are fixed when the cache is made: all nodes in
    node order by default; an unknown one raises `KeyError`.  The first
    :meth:`bottlenecks` call builds the trees of all of them, and every
    call reads them.

    A route is the path of least (total base fee, hops, node sequence,
    last channel id).  The trees of a block of sources are built at once
    from one int64 key per (node, source), ``fee * n + hops``: hops stay
    below n, so the key orders paths by fee, then hops, and a channel
    adds ``base_fee * n + 1``.  Bellman-Ford rounds over the directed
    channels find every node's least key.  Then, hop level by hop level,
    each reached target takes, of its tight incoming channels (the
    predecessor's key plus the channel's equals the target's), the one
    whose predecessor's path ranks first, ties to the lower channel id;
    and the level's paths are ranked by (predecessor's rank, node index).
    A path's node sequence is its predecessor's, one hop shorter, then its
    target, and the graph lists its nodes sorted, so these ranks are
    node-sequence order.  So every cheapest path extends the cheapest
    path to its predecessor, one level nearer, and a target's bottleneck
    is the smaller of its predecessor's bottleneck and the last hop's
    balance.

    Each hop level, nearest first, is one int32 array of two rows over
    every source: the source's place in `sources` and the directed
    channel of the last hop.

    The trees hold only while the topology and the fees stay fixed, which
    circular payments guarantee; build a new cache for any other change.
    :func:`evaluate_network` rejects a cache made for another graph or
    other sources.
    Raises `ValueError` for a graph whose keys could reach 2**62.
    """

    def __init__(self, g: NetworkGraph, sources: Sequence[int] | None = None):
        nodes = g.nodes()
        n = len(nodes)
        top = max((ch.base_fee_msat for ch in g.channels.values()), default=0)
        # the dearest simple path's key; _FAR plus any channel's key stays below 2**63
        if (n - 1) * n * top + n >= _FAR:
            raise ValueError(
                f"route keys (fee * nodes + hops) must stay below 2**62: {n} nodes "
                f"and a base fee of {top} msat reach {(n - 1) * n * top + n}"
            )
        self._graph = g
        self.sources = nodes if sources is None else list(sources)
        index = {u: i for i, u in enumerate(nodes)}
        self._cols = [index[s] for s in self.sources]  # node index of each source
        # directed channels by (target, channel id); balance slot 2k holds channel k's balance_a
        arcs = sorted(
            (index[b], ch.cid, index[a], 2 * k + side, ch.base_fee_msat)
            for k, ch in enumerate(g.channels.values())
            for side, (a, b) in enumerate(((ch.node_a, ch.node_b), (ch.node_b, ch.node_a)))
        )
        target, _, pred, slot, fee = np.array(arcs, dtype=np.int64).reshape(-1, 5).T
        self._target, self._pred, self._slot = target, pred, slot
        self._weight = fee * n + 1
        # every node is a channel endpoint, so each node has a run of incoming arcs
        self._first_in = _run_starts(target)
        self._levels: list[np.ndarray] | None = None  # built at the first read

    def _build(self) -> list[np.ndarray]:
        """The hop levels of every source's tree, built block by block.

        The blocks' levels go into one buffer, each source reaching at most
        n - 1 targets, and are then copied out level by level, so the
        per-block pieces never fragment the heap.
        """
        cols = self._cols
        width = max(1, _BLOCK // self._target.size)
        entries = np.empty((2, len(cols) * (self._graph.num_nodes() - 1)), dtype=np.int32)
        spans: list[list[tuple[int, int]]] = []  # per hop level, its stretches of `entries`
        used = 0
        for b in range(0, len(cols), width):
            for h, (rows, arcs) in enumerate(self._block_levels(cols[b : b + width])):
                entries[0, used : used + rows.size] = rows + b
                entries[1, used : used + rows.size] = arcs
                if h == len(spans):
                    spans.append([])
                spans[h].append((used, used + rows.size))
                used += rows.size
        return [np.concatenate([entries[:, lo:hi] for lo, hi in stretches], axis=1) for stretches in spans]

    def _block_levels(self, cols: list[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each hop level of the trees of sources `cols` (node indices), nearest first.

        A level is the places in `cols` of its entries' sources and the
        directed channels of their last hops.
        """
        target, pred, weight = self._target, self._pred, self._weight[:, None]
        n, width = self._graph.num_nodes(), len(cols)
        keys = np.full((n, width), _FAR, dtype=np.int64)
        keys[cols, np.arange(width)] = 0
        while True:
            relaxed = np.minimum.reduceat(keys[pred] + weight, self._first_in)
            np.minimum(relaxed, keys, out=relaxed)
            if np.array_equal(relaxed, keys):
                break
            keys = relaxed
        # tight arcs, ordered by (source column, target, channel id), and the
        # cell, target * width + column, of each in `keys`
        col, arc = np.nonzero((keys[pred] + weight == keys[target]).T)
        cell = target[arc] * width + col
        hops = keys.ravel()[cell] % n
        order = np.argsort(hops, kind="stable")
        col, arc, cell = col[order], arc[order], cell[order]
        bounds = np.searchsorted(hops[order], np.arange(1, hops.max(initial=0) + 2))
        rank = np.zeros(n * width, dtype=np.int64)  # rank of each cell's path within its level
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            c, a, here = col[lo:hi], arc[lo:hi], cell[lo:hi]
            first = _run_starts(here)
            best = np.minimum.reduceat(rank[pred[a] * width + c] * target.size + a, first)
            c, here = c[first], here[first]
            # within one column, the cell orders targets as node indices do
            order = np.argsort(best // target.size * (n * width) + here)
            rank[here[order]] = np.arange(order.size)
            yield c, best % target.size

    def bottlenecks(self) -> np.ndarray:
        """Bottlenecks from each source to every node, one row per source.

        Rows follow `sources`, columns the node order.  A source's own
        entry is `_UNBOUNDED`, which no real bottleneck exceeds.  The
        first call builds the trees; every call reads them, one hop level
        after another, `_BLOCK` entries at a time.
        """
        if self._levels is None:
            self._levels = self._build()
        g = self._graph
        balances = np.fromiter(
            itertools.chain.from_iterable((ch.balance_a, ch.balance_b) for ch in g.channels.values()),
            dtype=np.int64,
            count=2 * len(g.channels),
        )[self._slot]
        n = g.num_nodes()
        rows = np.zeros((len(self._cols), n), dtype=np.int64)
        rows[np.arange(len(self._cols)), self._cols] = _UNBOUNDED
        flat = rows.ravel()
        for level in self._levels:
            for b in range(0, level.shape[1], _BLOCK):
                row, arc = level[:, b : b + _BLOCK]
                at = row.astype(np.int64)
                at *= n
                least = flat[at + self._pred[arc]]
                np.minimum(least, balances[arc], out=least)
                at += self._target[arc]
                flat[at] = least
        return rows


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal entries of `values`."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def ks_distance(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |ECDF_a - ECDF_b|."""
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise ValueError("ks_distance needs nonempty samples")
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def cdf_points(ordered: Sequence[float]) -> list[tuple[float, float]]:
    """(value, cumulative fraction) at each distinct value of the ascending `ordered`."""
    ordered = np.asarray(ordered)
    n = ordered.size
    if n == 0:
        return []
    ends = np.flatnonzero(ordered[1:] != ordered[:-1]).tolist() + [n - 1]
    return [(v, (i + 1) / n) for v, i in zip(ordered[ends].tolist(), ends)]


def evaluate_network(
    g: NetworkGraph,
    amount: int = 1,
    *,
    sample_pairs: int | None = None,
    seed: int = 0,
    routes: RouteCache | None = None,
    cdf: bool = True,
) -> EvaluationReport:
    """Payment ability of one snapshot, over all ordered pairs by default.

    With `sample_pairs` = N the statistics are over every pair of
    ceil(N / (n - 1)) sources drawn uniformly with `seed`, or of all n
    sources once that many are needed, so the cost follows N; the report
    notes the number of pairs used and, from two sources on, the standard
    error of the success rate.  The default `seed` is 0, as for `evaluate
    --seed`, so a sampled call draws the same sources every time.  Pass
    the same `routes` to every evaluation of one graph and source list so
    its cheapest-path trees are built once; it must be a cache of `g` and
    of the sources this call draws, all nodes for a full evaluation.  By
    default a fresh cache is made for this call alone.  With `cdf` False
    the report's `payment_size_cdf` is None and is not built; success
    rate and median are the same either way.
    """
    if amount < 1:
        raise ValueError("amount must be at least 1 satoshi")
    nodes = g.nodes()
    n = len(nodes)
    if n < 2:
        raise ValueError("evaluation needs at least two nodes")
    sources, sampled, se = nodes, None, None
    if sample_pairs is not None:
        if sample_pairs < 1:
            raise ValueError("sample_pairs must be at least 1")
        count = min(-(-sample_pairs // (n - 1)), n)
        sources = random.Random(seed).sample(nodes, count)
        sampled = count * (n - 1)
    if routes is None:
        routes = RouteCache(g, sources)
    elif routes._graph is not g or routes.sources != sources:
        raise ValueError("route cache used with a graph or sources it was not built for")
    rows = routes.bottlenecks()
    # numpy compares an amount past int64 as a float, and no channel holds that much
    fits = amount <= _UNBOUNDED
    if sampled is not None and len(sources) > 1:
        # each row's own, unbounded entry carries any amount that fits
        counts = ((rows >= amount).sum(axis=1) - 1).tolist() if fits else [0] * len(sources)
        se = _success_rate_se(counts, n)
    ordered = rows.ravel()
    ordered.sort()
    ordered = ordered[: -len(sources)]  # the sources' own, unbounded entries sort last
    blocked = np.searchsorted(ordered, amount) if fits else ordered.size
    return EvaluationReport(
        success_rate=(ordered.size - int(blocked)) / ordered.size,
        median_payment_sat=ordered[(ordered.size - 1) // 2].item(),
        payment_size_cdf=cdf_points(ordered) if cdf else None,
        amount_sat=amount,
        sampled_pairs=sampled,
        success_rate_se=se,
    )


def _success_rate_se(counts: Sequence[int], n: int) -> float:
    """Standard error of the success rate of k >= 2 sources drawn from n nodes.

    `counts` holds, per drawn source, how many of its n - 1 targets carry
    the amount.  The rate is the mean of the per-source rates, and its
    variance under sampling without replacement is
    (n - k) (k sum c^2 - (sum c)^2) / (n k^2 (k - 1) (n - 1)^2), which is 0
    at k = n.  The quotient of exact integers rounds once, so every Python
    gives the same float.
    """
    k = len(counts)
    spread = k * sum(c * c for c in counts) - sum(counts) ** 2
    return math.sqrt((n - k) * spread / (n * k * k * (k - 1) * (n - 1) ** 2))
