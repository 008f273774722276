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
only reads the current balances down the cached trees.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import NetworkGraph, node_gini


@dataclass(frozen=True)
class PathQueryResult:
    """Cheapest directed path between two nodes plus its liquidity limit."""

    source: int
    target: int
    path: list[tuple[int, int]]  # (channel id, sender) per hop
    total_base_fee: int
    bottleneck: int


@dataclass
class EvaluationReport:
    """All snapshot metrics behind the before/after comparisons.

    `success_rate` is the fraction of ordered pairs whose cheapest path can
    forward `amount_sat`.  `median_payment_sat` is the median bottleneck,
    the lower middle value for an even count, with blocked pairs as 0.
    """

    success_rate: float
    median_payment_sat: int
    payment_size_cdf: list[tuple[int, float]]
    gini_values: list[float]
    network_imbalance: float
    amount_sat: int = 1
    sampled_pairs: int | None = None


# cost tuples are (fee, hops, node sequence, channel sequence); comparing the
# node sequence breaks fee/hop ties lexicographically and keeps Dijkstra greedy
def _single_source(g: NetworkGraph, source: int) -> dict[int, tuple]:
    start = (0, 0, (source,), ())
    best: dict[int, tuple] = {source: start}
    heap = [start]
    while heap:
        entry = heapq.heappop(heap)
        fee, hops, nodes, cids = entry
        u = nodes[-1]
        if best.get(u) != entry:
            continue
        for cid, nb in g.incident(u):
            ch = g.channels[cid]
            cand = (fee + ch.base_fee_msat, hops + 1, nodes + (nb,), cids + (cid,))
            cur = best.get(nb)
            if cur is None or cand < cur:
                best[nb] = cand
                heapq.heappush(heap, cand)
    return best


def _bottleneck_of(g: NetworkGraph, nodes: tuple[int, ...], cids: tuple[int, ...]) -> int:
    return min(g.channels[cid].balance(sender) for sender, cid in zip(nodes, cids))


def cheapest_path(g: NetworkGraph, source: int, target: int) -> PathQueryResult:
    """Minimum base-fee path, ties to fewer hops then smaller node ids.

    Balances do not influence the choice; the bottleneck is read off the
    chosen path afterward.  No path yields an empty result with
    bottleneck 0.
    """
    if source == target:
        raise ValueError("source and target must differ")
    if source not in g.adjacency or target not in g.adjacency:
        raise KeyError("unknown node")
    entry = _single_source(g, source).get(target)
    if entry is None:
        return PathQueryResult(source, target, [], 0, 0)
    fee, _, nodes, cids = entry
    path = [(cid, sender) for sender, cid in zip(nodes, cids)]
    return PathQueryResult(source, target, path, fee, _bottleneck_of(g, nodes, cids))


_UNBOUNDED = np.iinfo(np.int64).max


class RouteCache:
    """Cheapest-path trees of one graph, one per source, built on first use.

    A source's tree lists every reachable target by hop count (fewest
    first) with its predecessor on the cheapest path and the directed
    channel side of the last hop, as int32 arrays.  The tie-break of
    :func:`_single_source` makes every cheapest path extend the cheapest
    path to its predecessor, so a target's bottleneck is the smaller of its
    predecessor's bottleneck and the last hop's balance.

    The trees hold only while the topology and the fees stay fixed, which
    circular payments guarantee; build a new cache for any other change.
    Using the cache with a graph other than the one it was made for raises
    ``ValueError``.
    """

    def __init__(self, g: NetworkGraph):
        self._graph = g
        self._nodes = g.nodes()
        self._index = {u: i for i, u in enumerate(self._nodes)}
        # balance slots: 2k holds channel k's balance_a, 2k + 1 its balance_b
        self._slot = {cid: 2 * k for k, cid in enumerate(g.channels)}
        self._trees: dict[int, tuple[np.ndarray, list[int]]] = {}

    def _tree(self, source: int) -> tuple[np.ndarray, list[int]]:
        """(rows target / predecessor / balance slot, end of each hop level)."""
        tree = self._trees.get(source)
        if tree is None:
            g, index = self._graph, self._index
            hops = sorted(
                (
                    len(cids),
                    index[nodes[-1]],
                    index[nodes[-2]],
                    self._slot[cids[-1]] + (nodes[-2] != g.channels[cids[-1]].node_a),
                )
                for _, _, nodes, cids in _single_source(g, source).values()
                if cids
            )
            depths, *columns = zip(*hops) if hops else ((),) * 4
            ends = [i for i in range(1, len(depths)) if depths[i] != depths[i - 1]]
            tree = (np.array(columns, dtype=np.int32), ends + [len(depths)])
            self._trees[source] = tree
        return tree

    def bottlenecks(self, g: NetworkGraph, pairs: Sequence[tuple[int, int]] | None = None) -> np.ndarray:
        """Bottlenecks of `pairs` in the given order; all ordered pairs by default.

        Each pair is (source, target) of two distinct nodes; all pairs come
        in sorted order.  Only the trees of the sources that occur are built.
        """
        if g is not self._graph:
            raise ValueError("route cache used with a graph it was not built for")
        nodes, index = self._nodes, self._index
        sources = nodes if pairs is None else sorted({s for s, _ in pairs})
        balances = np.fromiter(
            itertools.chain.from_iterable((ch.balance_a, ch.balance_b) for ch in g.channels.values()),
            dtype=np.int64,
            count=2 * len(g.channels),
        )
        rows = np.zeros((len(sources), len(nodes)), dtype=np.int64)
        for row, source in zip(rows, sources):
            tree, ends = self._tree(source)
            row[index[source]] = _UNBOUNDED
            start = 0
            for end in ends:
                targets, preds, slots = tree[:, start:end]
                row[targets] = np.minimum(row[preds], balances[slots])
                start = end
        if pairs is None:
            return rows[~np.eye(len(nodes), dtype=bool)]
        row_of = {s: i for i, s in enumerate(sources)}
        return rows[[row_of[s] for s, _ in pairs], [index[t] for _, t in pairs]]


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


def gini_distribution(g: NetworkGraph) -> list[float]:
    """Per-node Gini values in node-id order."""
    nodes = g.nodes()
    if not nodes:
        raise ValueError("gini distribution of an empty graph")
    return [node_gini(g, u) for u in nodes]


def cdf_points(values: Sequence[float]) -> list[tuple[float, float]]:
    """(value, cumulative fraction) at each distinct value, ascending."""
    ordered = np.sort(np.asarray(values))
    n = ordered.size
    if n == 0:
        return []
    ends = np.flatnonzero(ordered[1:] != ordered[:-1]).tolist() + [n - 1]
    return [(v, (i + 1) / n) for v, i in zip(ordered[ends].tolist(), ends)]


def _sample_ordered_pairs(nodes: Sequence[int], k: int, seed: int | None) -> list[tuple[int, int]]:
    n = len(nodes)
    total = n * (n - 1)
    rng = random.Random(seed)
    picks = rng.sample(range(total), min(k, total))
    pairs = []
    for idx in picks:
        s, r = divmod(idx, n - 1)
        t = r if r < s else r + 1
        pairs.append((nodes[s], nodes[t]))
    return sorted(pairs)


def evaluate_network(
    g: NetworkGraph,
    amount: int = 1,
    *,
    sample_pairs: int | None = None,
    seed: int | None = None,
    routes: RouteCache | None = None,
) -> EvaluationReport:
    """Compute the full metric set of one snapshot.

    With `sample_pairs` the pair statistics use a seeded uniform sample of
    ordered pairs instead of all of them (approximate, for large graphs);
    the report notes the sample size.  Pass the same `routes` to every
    evaluation of one graph so its cheapest-path trees are built once; by
    default a fresh cache is made for this call alone.
    """
    if amount < 1:
        raise ValueError("amount must be at least 1 satoshi")
    nodes = g.nodes()
    if len(nodes) < 2:
        raise ValueError("evaluation needs at least two nodes")
    if routes is None:
        routes = RouteCache(g)
    if sample_pairs is None:
        bottlenecks = routes.bottlenecks(g)
        sampled = None
    else:
        if sample_pairs < 1:
            raise ValueError("sample_pairs must be at least 1")
        pairs = _sample_ordered_pairs(nodes, sample_pairs, seed)
        bottlenecks = routes.bottlenecks(g, pairs)
        sampled = len(pairs)
    ordered = np.sort(bottlenecks)
    gini_values = gini_distribution(g)
    return EvaluationReport(
        success_rate=int(np.count_nonzero(ordered >= amount)) / ordered.size,
        median_payment_sat=ordered[(ordered.size - 1) // 2].item(),
        payment_size_cdf=cdf_points(ordered),
        gini_values=gini_values,
        network_imbalance=sum(gini_values) / len(gini_values),
        amount_sat=amount,
        sampled_pairs=sampled,
    )
