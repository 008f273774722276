"""World state and imbalance metrics for payment channel networks.

A channel locks a publicly known capacity between two nodes and splits it
into two private balances that always sum to the capacity.  A node's
imbalance is the Gini coefficient of its channel balance coefficients
(its relative funds per channel); the network imbalance is the mean of
the per-node Gini values.  The only mutation of the world state is the
atomic circular payment, which shifts the same amount along every hop of
a cycle and therefore leaves every node's total funds unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class InsufficientBalanceError(RuntimeError):
    """A circular payment hop would overdraw the sender's balance."""


class InvariantViolation(AssertionError):
    """A conservation or agreement invariant failed after a mutation."""


@dataclass
class Channel:
    """Undirected capacity edge with two private directed balances.

    Balances are integer satoshi and must sum to the capacity at all
    times.  Fee parameters describe what forwarding through this channel
    would cost: a fixed base fee (millisatoshi) plus a proportional rate
    (parts per million of the forwarded amount).
    """

    cid: int
    node_a: int
    node_b: int
    capacity: int
    balance_a: int
    balance_b: int
    base_fee_msat: int = 1000
    fee_rate_ppm: int = 1

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError(f"channel {self.cid}: self-channels are not allowed")
        if self.capacity <= 0:
            raise ValueError(f"channel {self.cid}: capacity must be positive")
        if self.balance_a < 0 or self.balance_b < 0:
            raise ValueError(f"channel {self.cid}: balances must be non-negative")
        if self.balance_a + self.balance_b != self.capacity:
            raise ValueError(
                f"channel {self.cid}: balances {self.balance_a}+{self.balance_b} "
                f"do not sum to capacity {self.capacity}"
            )
        if self.base_fee_msat < 0 or self.fee_rate_ppm < 0:
            raise ValueError(f"channel {self.cid}: fee parameters must be non-negative")

    def is_endpoint(self, node: int) -> bool:
        return node == self.node_a or node == self.node_b

    def peer(self, node: int) -> int:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of channel {self.cid}")

    def balance(self, node: int) -> int:
        if node == self.node_a:
            return self.balance_a
        if node == self.node_b:
            return self.balance_b
        raise ValueError(f"node {node} is not an endpoint of channel {self.cid}")

    def zeta(self, node: int) -> float:
        """Channel balance coefficient of `node`: its balance over the capacity."""
        return self.balance(node) / self.capacity

    def shift(self, sender: int, amount: int) -> None:
        """Move `amount` satoshi from the sender's side to the peer's side."""
        if amount < 0:
            raise ValueError("shift amount must be non-negative")
        if sender == self.node_a:
            if self.balance_a < amount:
                raise InsufficientBalanceError(
                    f"channel {self.cid}: node {sender} holds {self.balance_a} < {amount}"
                )
            self.balance_a -= amount
            self.balance_b += amount
        elif sender == self.node_b:
            if self.balance_b < amount:
                raise InsufficientBalanceError(
                    f"channel {self.cid}: node {sender} holds {self.balance_b} < {amount}"
                )
            self.balance_b -= amount
            self.balance_a += amount
        else:
            raise ValueError(f"node {sender} is not an endpoint of channel {self.cid}")


class NetworkGraph:
    """Node and channel store with adjacency; the single mutable world state.

    Node ids are small integers assigned at ingestion; `labels` keeps the
    original string ids for reporting.  The nodes are exactly the channel
    endpoints, so every node has at least one channel.  Channels are keyed
    by their id and parallel channels between the same pair of nodes are
    kept distinct.  All balance mutation goes through
    :func:`apply_circular_payment` (single-writer discipline; metric reads
    must not interleave with it).
    """

    def __init__(self, channels: Iterable[Channel], labels: Mapping[int, str] | None = None):
        self.channels: dict[int, Channel] = {}
        adjacency: dict[int, list[tuple[int, int]]] = {}
        for ch in channels:
            if ch.cid in self.channels:
                raise ValueError(f"duplicate channel id {ch.cid}")
            self.channels[ch.cid] = ch
            adjacency.setdefault(ch.node_a, []).append((ch.cid, ch.node_b))
            adjacency.setdefault(ch.node_b, []).append((ch.cid, ch.node_a))
        for entries in adjacency.values():
            entries.sort()
        self.adjacency: dict[int, list[tuple[int, int]]] = dict(sorted(adjacency.items()))
        self.labels: dict[int, str] = {
            u: (labels[u] if labels is not None and u in labels else str(u))
            for u in self.adjacency
        }
        # neighbor-major ordering, built lazily; topology never changes
        self._nbr_sorted: dict[int, list[tuple[int, int]]] = {}

    def nodes(self) -> list[int]:
        return list(self.adjacency)

    def num_nodes(self) -> int:
        return len(self.adjacency)

    def num_channels(self) -> int:
        return len(self.channels)

    def channel(self, cid: int) -> Channel:
        try:
            return self.channels[cid]
        except KeyError:
            raise KeyError(f"unknown channel {cid}") from None

    def incident(self, node: int) -> list[tuple[int, int]]:
        """(channel id, neighbor) pairs for `node`, ordered by channel id."""
        try:
            return self.adjacency[node]
        except KeyError:
            raise KeyError(f"unknown node {node}") from None

    def incident_by_neighbor(self, node: int) -> list[tuple[int, int]]:
        """(neighbor, channel id) pairs for `node`, ordered by neighbor then id."""
        cached = self._nbr_sorted.get(node)
        if cached is None:
            cached = sorted((nb, cid) for cid, nb in self.incident(node))
            self._nbr_sorted[node] = cached
        return cached

    def label(self, node: int) -> str:
        return self.labels[node]


@dataclass(frozen=True)
class RebalanceCycle:
    """Directed circular payment path rooted at an initiator.

    `hops` is a sequence of (sender, receiver, channel id) triples forming
    a simple directed cycle: the first sender and the last receiver are the
    initiator, no other node repeats, and at least two hops are present.
    """

    initiator: int
    hops: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.hops) < 2:
            raise ValueError("a rebalance cycle needs at least two hops")
        if self.hops[0][0] != self.initiator:
            raise ValueError("first hop must start at the initiator")
        if self.hops[-1][1] != self.initiator:
            raise ValueError("last hop must return to the initiator")
        seen_nodes = set()
        seen_channels = set()
        for i, (sender, receiver, cid) in enumerate(self.hops):
            if i > 0 and sender != self.hops[i - 1][1]:
                raise ValueError("hops do not form a connected walk")
            if i > 0 and sender == self.initiator:
                raise ValueError("initiator may appear only at the cycle ends")
            if sender in seen_nodes:
                raise ValueError(f"node {sender} repeats on the cycle")
            if cid in seen_channels:
                raise ValueError(f"channel {cid} repeats on the cycle")
            seen_nodes.add(sender)
            seen_channels.add(cid)

    @property
    def nodes(self) -> tuple[int, ...]:
        """Sender sequence of the cycle (initiator first)."""
        return tuple(sender for sender, _, _ in self.hops)

    @property
    def channel_ids(self) -> tuple[int, ...]:
        return tuple(cid for _, _, cid in self.hops)


def node_totals(g: NetworkGraph, u: int) -> tuple[int, int]:
    """Total funds and total incident capacity of `u`, as exact integers."""
    tau = 0
    kappa = 0
    for cid, _ in g.incident(u):
        ch = g.channels[cid]
        tau += ch.balance(u)
        kappa += ch.capacity
    return tau, kappa


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of non-negative values via the sorted formulation.

    Equals the pairwise mean-absolute-difference definition
    sum_ij |v_i - v_j| / (2 n sum(v)).  Returns 0 for a single value and,
    by convention, for an all-zero vector (zero denominator).
    """
    n = len(values)
    if n == 0:
        raise ValueError("gini of an empty sequence")
    total = sum(values)
    if total == 0:
        return 0.0
    acc = 0.0
    for i, v in enumerate(sorted(values), start=1):
        acc += (2 * i - n - 1) * v
    # the exact value is never negative; equal values can round to -1e-17
    return acc / (n * total) if acc > 0 else 0.0


def node_gini(g: NetworkGraph, u: int) -> float:
    """Gini coefficient of `u`'s channel balance coefficients; 0 means even."""
    return gini([g.channels[cid].zeta(u) for cid, _ in g.incident(u)])


def network_imbalance(g: NetworkGraph) -> float:
    """Mean of the per-node Gini values; the minimization objective."""
    nodes = g.nodes()
    if not nodes:
        raise ValueError("imbalance of an empty graph")
    return sum(node_gini(g, u) for u in nodes) / len(nodes)


def apply_circular_payment(g: NetworkGraph, cycle: RebalanceCycle, amount: int) -> None:
    """Atomically shift `amount` satoshi along every hop of `cycle`.

    Either every hop's sender has sufficient balance and all hops are
    applied, or the state is left untouched and
    :class:`InsufficientBalanceError` is raised.  Capacities and every
    node's total funds are unchanged by construction (each cycle node
    sends and receives exactly once).
    """
    if amount < 1:
        raise ValueError("circular payment amount must be at least 1 satoshi")
    for sender, receiver, cid in cycle.hops:
        ch = g.channel(cid)
        if ch.peer(sender) != receiver:
            raise ValueError(f"hop {sender}->{receiver} does not match channel {cid}")
        if ch.balance(sender) < amount:
            raise InsufficientBalanceError(
                f"channel {cid}: node {sender} holds {ch.balance(sender)} < {amount}"
            )
    for sender, _, cid in cycle.hops:
        g.channels[cid].shift(sender, amount)
