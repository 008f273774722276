"""Candidate rebalancing cycle enumeration under four selection strategies.

A cycle candidate always starts with the directed hop the initiator wants
to drain and returns to the initiator through distinct nodes and channels.
``cycle4``/``cycle5`` enumerate all simple cycles of at most 4/5 hops;
``foaf`` (and ``mpp``, which shares its cycle set and only splits amounts)
searches up to 6 hops but stays inside the initiator's friend-of-a-friend
node set.  Enumeration is a pure read of the topology: shortest cycles
first, lexicographic by hop within a length, so truncating at a cap is
reproducible.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from .model import NetworkGraph, RebalanceCycle


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


def _bfs_distances(g: NetworkGraph, target: int, allowed: set[int] | None) -> dict[int, int]:
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
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
) -> list[RebalanceCycle]:
    """Simple cycles starting with the hop initiator->peer on channel `cid`.

    Returns at most `cap` cycles, shortest first.  Within each length
    the order is lexicographic by hop: at each hop by (next node, channel
    id), so with parallel channels the channel taken at an earlier hop
    outranks the nodes reached later.  Length counts hops; two-hop cycles
    exist only through parallel channels.
    """
    if cap < 1:
        raise ValueError("cycle cap must be at least 1")
    v = g.channel(cid).peer(initiator)
    if strategy.foaf_restricted:
        allowed = foaf_node_set(g, initiator)
        max_len = DEFAULT_FOAF_MAX_LEN
    else:
        allowed = None
        max_len = 4 if strategy is Strategy.CYCLE4 else 5
    dist = _bfs_distances(g, initiator, allowed)
    out: list[RebalanceCycle] = []
    for length in range(2, max_len + 1):
        if len(out) >= cap:
            break
        _collect_exact_length(g, initiator, cid, v, length, dist, out, cap)
    return out


def _collect_exact_length(
    g: NetworkGraph,
    initiator: int,
    first_cid: int,
    v: int,
    length: int,
    dist: dict[int, int],
    out: list[RebalanceCycle],
    cap: int,
) -> None:
    """Append all cycles of exactly `length` hops, lexicographic by hop."""
    path = [initiator, v]
    cids = [first_cid]
    on_path = {initiator, v}

    def emit(closing_cid: int) -> None:
        hops = [(path[i], path[i + 1], cids[i]) for i in range(len(path) - 1)]
        hops.append((path[-1], initiator, closing_cid))
        out.append(RebalanceCycle(initiator, tuple(hops)))

    def extend(current: int, hops_used: int) -> bool:
        """Depth-first; returns True once the cap is reached."""
        if hops_used == length - 1:
            for nb, cc in g.incident_by_neighbor(current):
                if nb != initiator or cc == first_cid:
                    continue
                emit(cc)
                if len(out) >= cap:
                    return True
            return False
        budget = length - hops_used - 1
        for nb, cc in g.incident_by_neighbor(current):
            if nb in on_path:
                continue
            if dist.get(nb, budget + 1) > budget:
                continue
            path.append(nb)
            cids.append(cc)
            on_path.add(nb)
            stop = extend(nb, hops_used + 1)
            path.pop()
            cids.pop()
            on_path.discard(nb)
            if stop:
                return True
        return False

    extend(v, 1)
