"""Payment-ability metrics over a network snapshot.

Routing mimics a source-based payer: paths are chosen by total base fee
alone (balances are private and invisible to the router) and only then
checked against the true balances.  The bottleneck of a path is the
largest amount it can forward on the first attempt; a blocked path
bottlenecks at 0.  All pair statistics are over ordered pairs, since
liquidity is directional.

Route choice reads only the topology and the base fees, and a circular
payment changes neither: it moves balances alone.  So the cheapest-path
tree of each source stays valid for the whole of a simulation run, and a
:class:`RouteCache` computes it once per graph.  Each later evaluation
only reads the current balances down the cached trees, stored per hop
level.  A sampled evaluation draws sources and builds the trees of those
alone.  Each source's own entry in its row is unbounded and sorts last,
so one sorted array, cut before those entries, serves every statistic.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

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
    evaluation or a sample of one source.
    """

    success_rate: float
    median_payment_sat: int
    payment_size_cdf: list[tuple[int, float]]
    amount_sat: int = 1
    sampled_pairs: int | None = None
    success_rate_se: float | None = None


_UNBOUNDED = MAX_CAPACITY_SAT  # Channel caps every capacity, so every balance, at this


class RouteCache:
    """Cheapest-path trees of one graph, one per source, built on first use.

    A source's tree is stored per hop level, nearest level first: each
    level is one int32 array of three rows, the targets at that hop count,
    their predecessors on the cheapest path and the directed channel side
    of the last hop.  The tie-break of :meth:`_tree` makes every cheapest
    path extend the cheapest path to its predecessor, one level nearer, so
    a target's bottleneck is the smaller of its predecessor's bottleneck
    and the last hop's balance.

    The trees hold only while the topology and the fees stay fixed, which
    circular payments guarantee; build a new cache for any other change.
    :func:`evaluate_network` rejects a cache made for another graph.
    """

    def __init__(self, g: NetworkGraph):
        self._graph = g
        self._index = {u: i for i, u in enumerate(g.nodes())}
        # balance slots: 2k holds channel k's balance_a, 2k + 1 its balance_b
        self._slot = {cid: 2 * k for k, cid in enumerate(g.channels)}
        self._trees: dict[int, list[np.ndarray]] = {}

    def _tree(self, source: int) -> list[np.ndarray]:
        """(targets, predecessors, balance slots) of each hop level, by Dijkstra.

        Entries are (fee, hops, node sequence, last channel).  Comparing the
        node sequence breaks fee/hop ties and keeps Dijkstra greedy; a node
        is settled once, with its final path, so entries equal in the first
        three differ in a parallel channel.  A settled node's predecessor
        settled before it, so its level is at most one past the last.
        """
        tree = self._trees.get(source)
        if tree is None:
            g, index, slot = self._graph, self._index, self._slot
            start = (0, 0, (source,), -1)
            best = {source: start}
            heap = [start]
            levels = []
            while heap:
                entry = heapq.heappop(heap)
                fee, hops, nodes, last = entry
                u = nodes[-1]
                if best[u] is not entry:
                    continue
                if hops:
                    if hops > len(levels):
                        levels.append([])
                    pred = nodes[-2]
                    levels[hops - 1].append((index[u], index[pred], slot[last] + (pred != g.channels[last].node_a)))
                for cid, nb in g.incident(u):
                    cand = (fee + g.channels[cid].base_fee_msat, hops + 1, nodes + (nb,), cid)
                    cur = best.get(nb)
                    if cur is None or cand < cur:
                        best[nb] = cand
                        heapq.heappush(heap, cand)
            tree = [np.array(level, dtype=np.int32).T for level in levels]
            self._trees[source] = tree
        return tree

    def bottlenecks(self, sources: Sequence[int]) -> np.ndarray:
        """Bottlenecks from each of `sources` to every node, one row per source.

        Rows follow `sources`, columns the node order.  A source's own
        entry is `_UNBOUNDED`, which no real bottleneck exceeds.  Only
        the trees of `sources` are built.
        """
        g, index = self._graph, self._index
        balances = np.fromiter(
            itertools.chain.from_iterable((ch.balance_a, ch.balance_b) for ch in g.channels.values()),
            dtype=np.int64,
            count=2 * len(g.channels),
        )
        rows = np.zeros((len(sources), len(index)), dtype=np.int64)
        for row, source in zip(rows, sources):
            row[index[source]] = _UNBOUNDED
            for targets, preds, slots in self._tree(source):
                row[targets] = np.minimum(row[preds], balances[slots])
        return rows


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
) -> EvaluationReport:
    """Payment ability of one snapshot, over all ordered pairs by default.

    With `sample_pairs` = N the statistics are over every pair of
    ceil(N / (n - 1)) sources drawn uniformly with `seed`, or of all n
    sources once that many are needed, so the cost follows N; the report
    notes the number of pairs used and, from two sources on, the standard
    error of the success rate.  The default `seed` is 0, as for `evaluate
    --seed`, so a sampled call draws the same sources every time.  Pass
    the same `routes` to every evaluation of one graph so its
    cheapest-path trees are built once; by default a fresh cache is made
    for this call alone.
    """
    if amount < 1:
        raise ValueError("amount must be at least 1 satoshi")
    nodes = g.nodes()
    n = len(nodes)
    if n < 2:
        raise ValueError("evaluation needs at least two nodes")
    if routes is None:
        routes = RouteCache(g)
    elif routes._graph is not g:
        raise ValueError("route cache used with a graph it was not built for")
    sources, sampled, se = nodes, None, None
    if sample_pairs is not None:
        if sample_pairs < 1:
            raise ValueError("sample_pairs must be at least 1")
        count = min(-(-sample_pairs // (n - 1)), n)
        sources = random.Random(seed).sample(nodes, count)
        sampled = count * (n - 1)
    rows = routes.bottlenecks(sources)
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
        payment_size_cdf=cdf_points(ordered),
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
