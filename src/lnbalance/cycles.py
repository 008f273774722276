"""Candidate rebalancing cycle enumeration under four selection strategies.

A candidate is a plain tuple of ``(sender, receiver, channel id)`` hops
that starts with the hop the initiator wants to drain and returns to the
initiator through distinct nodes and channels.
``cycle4``/``cycle5`` enumerate all simple cycles of at most 4/5 hops;
``foaf`` (and ``mpp``, which shares its cycle set and only splits amounts)
searches up to 6 hops but stays inside the initiator's friend-of-a-friend
node set.  Enumeration is a pure read of the topology: shortest cycles
first, lexicographic by hop within a length, so truncating at a cap is
reproducible.  The simulation kernel validates a candidate as a
:class:`~lnbalance.model.RebalanceCycle` only when it executes.

The search is one depth-first walk, pruned three ways.  A breadth-first
pass gives every node's hop distance back to the initiator, and the walk
steps only to nodes that can still close in the hops left.  Cut at two
hops for the foaf strategies, the one pass gives both the foaf set and
the distances inside it.  The initiator's closing channels are grouped by
neighbour once per call, so a cycle closes by lookup rather than by
scanning neighbours, and the last hop closes without descending.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from .model import NetworkGraph

Hops = tuple[tuple[int, int, int], ...]


class Strategy(Enum):
    CYCLE4 = "cycle4"
    CYCLE5 = "cycle5"
    FOAF = "foaf"
    MPP = "mpp"

    @property
    def foaf_restricted(self) -> bool:
        return self in (Strategy.FOAF, Strategy.MPP)

    @property
    def splits_amount(self) -> bool:
        return self is Strategy.MPP


DEFAULT_FOAF_MAX_LEN = 6


def _bfs_distances(g: NetworkGraph, target: int, limit: int) -> dict[int, int]:
    """Hop distance to `target` of every node within `limit` hops; farther nodes are missing."""
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        if dist[v] == limit:
            break  # every node still queued is as far as v
        for _, nb in g.incident(v):
            if nb in dist:
                continue
            dist[nb] = dist[v] + 1
            queue.append(nb)
    return dist


def enumerate_cycles(
    g: NetworkGraph,
    initiator: int,
    cid: int,
    strategy: Strategy,
    cap: int,
) -> list[Hops]:
    """Simple cycles, as hop tuples, starting with the hop initiator->peer on channel `cid`.

    Returns at most `cap` cycles, shortest first.  Within each length
    the order is lexicographic by hop: at each hop by (next node, channel
    id), so with parallel channels the channel taken at an earlier hop
    outranks the nodes reached later.  Length counts hops; two-hop cycles
    exist only through parallel channels.

    One depth-first pass in that order fills a list per length and stops
    adding to a list once it holds `cap` cycles.  On entering a node the
    walk first closes every cycle that ends there: the initiator's
    channels to that node, bar `cid`, are grouped by neighbour once per
    call.  Only then does it go deeper, and deeper cycles are longer, so
    each length's list stays in order.  It steps only to nodes whose hop
    distance to the initiator (inside the foaf set, for the foaf
    strategies) still fits the hops left; those steps are listed once per
    (node, hops left) and call.  With one hop left it closes at the
    neighbour without descending.
    """
    if cap < 1:
        raise ValueError("cycle cap must be at least 1")
    v = g.channel(cid).peer(initiator)
    max_len = {Strategy.CYCLE4: 4, Strategy.CYCLE5: 5}.get(strategy, DEFAULT_FOAF_MAX_LEN)
    # the foaf set is the two-hop ball, and a shortest path into it never leaves it
    dist = _bfs_distances(g, initiator, 2 if strategy.foaf_restricted else max_len - 2)
    closers: dict[int, list[tuple[int, int, int]]] = {}
    for nb, cc in g.incident_by_neighbor(initiator):
        if cc != cid:
            closers.setdefault(nb, []).append((nb, initiator, cc))
    # steps_at[budget][node]: (next node, hops to append) for each step from
    # `node` that can still close within `budget` further hops; with one hop
    # left, the step and its closing hop together
    steps_at: list[dict[int, list[tuple[int, Hops]]]] = [{} for _ in range(max_len)]
    by_length: list[list[Hops]] = [[] for _ in range(max_len + 1)]
    on_path = {initiator, v}

    def steps_from(current: int, budget: int) -> list[tuple[int, Hops]]:
        steps: list[tuple[int, Hops]] = []
        for nb, cc in g.incident_by_neighbor(current):
            if 0 < dist.get(nb, budget + 1) <= budget:
                hop = (current, nb, cc)
                if budget == 1:
                    steps += [(nb, (hop, close)) for close in closers.get(nb, ())]
                else:
                    steps.append((nb, (hop,)))
        steps_at[budget][current] = steps
        return steps

    def extend(current: int, path: Hops) -> None:
        n = len(path) + 1  # length of a cycle closed at `current`
        # hops left to close after the next one; at least 1, since the
        # first call has max_len - 2 >= 2 and only budget >= 2 descends
        budget = max_len - n
        closed = by_length[n]
        for close in closers.get(current, ()):
            if len(closed) < cap:
                closed.append(path + (close,))
        steps = steps_at[budget].get(current)
        if steps is None:
            steps = steps_from(current, budget)
        if budget == 1:
            # each step closes at once; the list may pass `cap` by this one
            # batch, which the cut at return drops
            closed = by_length[n + 1]
            if len(closed) < cap:
                for nb, tail in steps:
                    if nb not in on_path:
                        closed.append(path + tail)
            return
        for nb, tail in steps:
            if nb not in on_path:
                on_path.add(nb)
                extend(nb, path + tail)
                on_path.discard(nb)

    extend(v, ((initiator, v, cid),))
    return [c for cycles in by_length for c in cycles][:cap]
