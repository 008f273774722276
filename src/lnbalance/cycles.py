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


def foaf_node_set(g: NetworkGraph, u: int) -> set[int]:
    """`u`, its neighbors, and their neighbors (distance <= 2, undirected)."""
    neighbors = {nb for _, nb in g.incident(u)}
    out = {u} | neighbors
    for v in neighbors:
        out.update(nb for _, nb in g.incident(v))
    return out


def _bfs_distances(g: NetworkGraph, target: int, allowed: set[int] | None, limit: int) -> dict[int, int]:
    """Hop distance to `target` of every node within `limit` hops; farther nodes are missing."""
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        if dist[v] == limit:
            break  # every node still queued is as far as v
        for _, nb in g.incident(v):
            if nb in dist or (allowed is not None and nb not in allowed):
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
    exist only through parallel channels.  One depth-first pass in that
    order keeps at most `cap` cycles per length.
    """
    if cap < 1:
        raise ValueError("cycle cap must be at least 1")
    v = g.channel(cid).peer(initiator)
    allowed = foaf_node_set(g, initiator) if strategy.foaf_restricted else None
    max_len = {Strategy.CYCLE4: 4, Strategy.CYCLE5: 5}.get(strategy, DEFAULT_FOAF_MAX_LEN)
    dist = _bfs_distances(g, initiator, allowed, max_len - 2)
    by_length: list[list[Hops]] = [[] for _ in range(max_len + 1)]
    hops = [(initiator, v, cid)]
    on_path = {initiator, v}

    def extend(current: int) -> None:
        closed = by_length[len(hops) + 1]
        budget = max_len - len(hops) - 1  # hops left to close after the next one
        for nb, cc in g.incident_by_neighbor(current):
            if nb == initiator:
                if cc != cid and len(closed) < cap:
                    closed.append((*hops, (current, initiator, cc)))
            elif nb not in on_path and dist.get(nb, budget + 1) <= budget:
                hops.append((current, nb, cc))
                on_path.add(nb)
                extend(nb)
                hops.pop()
                on_path.discard(nb)

    extend(v)
    return [c for cycles in by_length for c in cycles][:cap]
