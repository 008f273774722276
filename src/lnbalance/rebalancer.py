"""Greedy collaborative rebalancing over circular payments.

Every node only ever uses local information: its own balance coefficients
and total-funds ratio.  A node drains a channel whose balance coefficient
exceeds its node coefficient by proposing a circular payment; every other
node on the cycle caps the amount so its own position does not get worse,
and declines (caps at zero) when it would.  Decision arithmetic is exact
integer math on balances and capacities, so floors match the rational
definitions and runs are bit-for-bit reproducible.

Each rule has one implementation: `candidate_channels`,
`desired_amount`, `check_sink_condition` and `max_agreeable_amount`.
The simulation kernel `attempt_rebalance` and the unit tests call these
same functions; `_VerifyWatch` re-checks their outcome independently
after every executed operation.  The rules take a node's (tau, kappa)
from `node_totals` as an argument, because circular payments never
change either total and the simulation computes them once per run.

Routing fees are tracked in a hypothetical ledger only: forwarding nodes
are credited what they would have charged and the initiator is debited,
but no fee ever moves channel balances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .cycles import Strategy, enumerate_cycles
from .model import (
    InvariantViolation,
    NetworkGraph,
    RebalanceCycle,
    apply_circular_payment,
    gini,
    node_gini,
    node_totals,
)

AGREEMENT_MODES = ("band", "gini")


@dataclass
class SimulationConfig:
    """Knobs of one simulation run; identical configs give identical runs."""

    seed: int
    strategy: Strategy
    cycle_cap: int = 5000
    agreement_mode: str = "band"
    require_sink_condition: bool = True
    mpp_divisor: int = 20
    min_amount: int = 1
    max_operations: int = 1_000_000
    convergence_epsilon: float = 0.01

    def __post_init__(self):
        if isinstance(self.strategy, str):
            self.strategy = Strategy(self.strategy)
        if self.cycle_cap < 1:
            raise ValueError("cycle_cap must be at least 1")
        if self.mpp_divisor < 1:
            raise ValueError("mpp_divisor must be at least 1")
        if self.min_amount < 1:
            raise ValueError("min_amount must be at least 1")
        if self.max_operations < 0:
            raise ValueError("max_operations must be non-negative")
        if self.agreement_mode not in AGREEMENT_MODES:
            raise ValueError(f"agreement_mode must be one of {AGREEMENT_MODES}")


class FeeLedger:
    """Signed per-node millisatoshi totals: earned minus paid, zero-sum."""

    def __init__(self):
        self._net: dict[int, int] = {}

    def credit(self, node: int, msat: int) -> None:
        self._net[node] = self._net.get(node, 0) + msat

    def debit(self, node: int, msat: int) -> None:
        self._net[node] = self._net.get(node, 0) - msat

    def net(self, node: int) -> int:
        return self._net.get(node, 0)

    def total(self) -> int:
        return sum(self._net.values())


@dataclass(frozen=True)
class OperationRecord:
    """Audit entry for one executed rebalancing operation."""

    seq: int
    initiator: int
    cycle: RebalanceCycle
    amount: int
    imbalance_after: float


@dataclass(frozen=True)
class MetricsSample:
    """Snapshot of progress: executed operations, imbalance, sampler outputs."""

    ops_count: int
    imbalance: float
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass
class SimulationResult:
    graph: NetworkGraph
    operations: list[OperationRecord]
    ledger: FeeLedger
    samples: list[MetricsSample]


def candidate_channels(g: NetworkGraph, u: int, totals: tuple[int, int]) -> list[int]:
    """Channels, in id order, where u's balance coefficient exceeds its node coefficient.

    `totals` is u's (tau, kappa) from `node_totals`.  Exact test:
    b * kappa > tau * c avoids float rounding at the boundary.
    """
    tau, kappa = totals
    out = []
    for cid, _ in g.incident(u):
        ch = g.channels[cid]
        if ch.balance(u) * kappa > tau * ch.capacity:
            out.append(cid)
    return out


def desired_amount(
    g: NetworkGraph, u: int, cid: int, totals: tuple[int, int], divisor: int = 1
) -> int:
    """floor(c * (zeta - nu)) for u on `cid`; the proposed rebalance size.

    `totals` is u's (tau, kappa) from `node_totals`.  `divisor` > 1
    splits the amount for multi-path style rebalancing.  A result of 0
    means the channel is skipped.  The result never exceeds u's balance
    on `cid`, since tau * c >= 0.
    """
    tau, kappa = totals
    ch = g.channel(cid)
    amount = (ch.balance(u) * kappa - ch.capacity * tau) // kappa
    if divisor > 1:
        amount //= divisor
    return max(amount, 0)


def _band_bound(
    g: NetworkGraph, x: int, in_cid: int, out_cid: int, requested: int, totals: tuple[int, int]
) -> int:
    """Largest amount x forwards while both coefficients move toward nu_x."""
    tau, kappa = totals
    out_ch = g.channels[out_cid]
    in_ch = g.channels[in_cid]
    b_out = out_ch.balance(x)
    bound = min(
        requested,
        b_out,
        (b_out * kappa - out_ch.capacity * tau) // kappa,
        (in_ch.capacity * tau - in_ch.balance(x) * kappa) // kappa,
    )
    return max(bound, 0)


def _gini_after_shift(g: NetworkGraph, x: int, in_cid: int, out_cid: int, amount: int) -> float:
    zetas = []
    for cid, _ in g.incident(x):
        ch = g.channels[cid]
        balance = ch.balance(x)
        if cid == out_cid:
            balance -= amount
        elif cid == in_cid:
            balance += amount
        zetas.append(balance / ch.capacity)
    return gini(zetas)


def _gini_bound(
    g: NetworkGraph, x: int, in_cid: int, out_cid: int, requested: int, totals: tuple[int, int]
) -> int:
    """Largest amount (found by bounded search) that does not raise x's Gini."""
    out_ch = g.channels[out_cid]
    in_ch = g.channels[in_cid]
    # receivable headroom caps the hypothetical shift at a sane coefficient
    bound = min(requested, out_ch.balance(x), in_ch.capacity - in_ch.balance(x))
    if bound < 1:
        return 0
    before = node_gini(g, x)

    def feasible(a: int) -> bool:
        return _gini_after_shift(g, x, in_cid, out_cid, a) <= before

    if feasible(bound):
        return bound
    band = min(_band_bound(g, x, in_cid, out_cid, requested, totals), bound)
    lo = band if band >= 1 and feasible(band) else 0
    hi = bound - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_agreeable_amount(
    g: NetworkGraph,
    x: int,
    in_cid: int,
    out_cid: int,
    requested: int,
    totals: tuple[int, int],
    mode: str = "band",
) -> int:
    """How much of `requested` node x agrees to forward; 0 declines.

    `totals` is x's (tau, kappa) from `node_totals`.  Band mode lets both
    touched coefficients move toward x's node coefficient without
    crossing it; gini mode accepts any amount that does not increase x's
    Gini, preferring the largest.  The result never exceeds `requested`.
    """
    if in_cid == out_cid:
        raise ValueError("in and out channel must differ")
    if mode not in AGREEMENT_MODES:
        raise ValueError(f"mode must be one of {AGREEMENT_MODES}")
    # endpoint validation happens via balance lookups
    g.channel(out_cid).balance(x)
    g.channel(in_cid).balance(x)
    if requested < 1:
        return 0
    if mode == "band":
        return _band_bound(g, x, in_cid, out_cid, requested, totals)
    return _gini_bound(g, x, in_cid, out_cid, requested, totals)


def check_sink_condition(g: NetworkGraph, u: int, last_cid: int, totals: tuple[int, int]) -> bool:
    """True iff the cycle may end on `last_cid`: zeta(u) < nu_u there.

    `totals` is u's (tau, kappa) from `node_totals`.
    """
    ch = g.channel(last_cid)
    tau, kappa = totals
    return ch.balance(u) * kappa < tau * ch.capacity


def record_fees(ledger: FeeLedger, g: NetworkGraph, cycle: RebalanceCycle, amount: int) -> None:
    """Credit each forwarding node its outgoing-hop fee, debit the initiator.

    Fee per forwarded hop: base_fee + floor(fee_rate * amount_msat / 1e6),
    in millisatoshi.  Balances are never touched; the ledger is what fees
    would have cost, not a transfer.
    """
    if amount < 1:
        raise ValueError("fee recording needs a positive amount")
    total = 0
    for sender, _, cid in cycle.hops[1:]:
        ch = g.channel(cid)
        fee = ch.base_fee_msat + (ch.fee_rate_ppm * amount * 1000) // 1_000_000
        ledger.credit(sender, fee)
        total += fee
    ledger.debit(cycle.initiator, total)


def attempt_rebalance(
    g: NetworkGraph,
    u: int,
    cid: int,
    cycle: RebalanceCycle,
    config: SimulationConfig,
    ledger: FeeLedger,
    totals: Mapping[int, tuple[int, int]],
) -> int | None:
    """Try one circular rebalance; returns the executed amount or None.

    `totals` maps each cycle node to its (tau, kappa) from `node_totals`.
    The sink condition is checked unless the config waives it (easier path
    finding at the cost of small oscillations), the initiator proposes its
    desired amount, and every intermediate node caps it by its agreement
    rule.  The amount never exceeds the initiator's balance on `cid`,
    because no rule raises it.  Only then is the payment applied
    atomically and its fees recorded.  Declines leave the state untouched.
    """
    hops = cycle.hops
    if hops[0][0] != u or hops[0][2] != cid:
        raise ValueError("cycle must start with the initiator's chosen channel")
    if config.require_sink_condition and not check_sink_condition(g, u, hops[-1][2], totals[u]):
        return None
    divisor = config.mpp_divisor if config.strategy.splits_amount else 1
    amount = desired_amount(g, u, cid, totals[u], divisor)
    if amount < config.min_amount:
        return None
    for (_, _, in_cid), (x, _, out_cid) in zip(hops, hops[1:]):
        amount = max_agreeable_amount(g, x, in_cid, out_cid, amount, totals[x], config.agreement_mode)
        if amount < config.min_amount:
            return None
    watch = _VerifyWatch(g, cycle, config, totals)
    apply_circular_payment(g, cycle, amount)
    watch.check_after(amount)
    record_fees(ledger, g, cycle, amount)
    if ledger.total() != 0:
        raise InvariantViolation("fee ledger lost zero-sum")
    return amount


class _VerifyWatch:
    """Pre/post assertions around one executed operation."""

    def __init__(self, g, cycle, config, totals):
        self.g = g
        self.cycle = cycle
        self.config = config
        self.totals = totals
        self.tau_before = {x: node_totals(g, x)[0] for x in cycle.nodes}
        if config.agreement_mode == "gini":
            self.gini_before = {x: node_gini(g, x) for x in cycle.nodes[1:]}

    def check_after(self, amount: int) -> None:
        g, cycle = self.g, self.cycle
        for _, _, cid in cycle.hops:
            ch = g.channels[cid]
            if ch.balance_a + ch.balance_b != ch.capacity:
                raise InvariantViolation(f"channel {cid} lost capacity conservation")
        for x in cycle.nodes:
            if node_totals(g, x)[0] != self.tau_before[x]:
                raise InvariantViolation(f"node {x} total funds changed")
        hops = cycle.hops
        for i in range(1, len(hops)):
            x = hops[i][0]
            tau, kappa = self.totals[x]
            if self.config.agreement_mode == "band":
                out_ch = g.channels[hops[i][2]]
                in_ch = g.channels[hops[i - 1][2]]
                # moved toward nu without crossing it, on both channels
                if out_ch.balance(x) * kappa < tau * out_ch.capacity:
                    raise InvariantViolation(f"node {x} crossed nu on its out channel")
                if in_ch.balance(x) * kappa > tau * in_ch.capacity:
                    raise InvariantViolation(f"node {x} crossed nu on its in channel")
            else:
                if node_gini(g, x) > self.gini_before[x]:
                    raise InvariantViolation(f"node {x} Gini increased")


def run_simulation(
    g: NetworkGraph,
    config: SimulationConfig,
    sampler: Callable[[NetworkGraph], Mapping[str, float]] | None = None,
) -> SimulationResult:
    """Run seeded sweeps of the greedy heuristic until no progress is made.

    Each sweep visits the nodes in seeded-random order; an active node
    (Gini above the convergence threshold, nonempty candidate set) picks a
    random candidate channel and works through its cycle candidates in
    seeded-shuffled order until one executes.  Terminates after a sweep
    with zero executed operations or at `max_operations`.  Whenever the
    network imbalance first falls below a new 0.01 grid value, `sampler`
    is called once on the graph and a sample records its metrics, sorted
    by name.  Mutates `g` in place and is fully deterministic in
    (g, config).
    """
    rng = random.Random(config.seed)
    nodes = g.nodes()
    if not nodes:
        raise ValueError("cannot simulate an empty graph")
    # circular payments never change a node's (tau, kappa)
    totals = {u: node_totals(g, u) for u in nodes}
    ledger = FeeLedger()
    ginis = {u: node_gini(g, u) for u in nodes}
    imbalance = sum(ginis.values()) / len(nodes)

    def take_sample(ops_count: int) -> MetricsSample:
        metrics = dict(sorted(sampler(g).items())) if sampler is not None else {}
        return MetricsSample(ops_count, imbalance, metrics)

    operations: list[OperationRecord] = []
    samples = [take_sample(0)]
    best_grid = math.floor(imbalance * 100 + 1e-9)
    cycle_cache: dict[tuple[int, int], list[RebalanceCycle]] = {}
    ops = 0
    capped = False
    while not capped:
        order = nodes[:]
        rng.shuffle(order)
        ops_this_sweep = 0
        for u in order:
            if ops >= config.max_operations:
                capped = True
                break
            if ginis[u] <= config.convergence_epsilon:
                continue
            candidates = candidate_channels(g, u, totals[u])
            if not candidates:
                continue
            cid = rng.choice(candidates)
            key = (u, cid)
            if key not in cycle_cache:
                cycle_cache[key] = enumerate_cycles(g, u, cid, config.strategy, config.cycle_cap)
            cyc = cycle_cache[key]
            if not cyc:
                continue
            indices = list(range(len(cyc)))
            rng.shuffle(indices)
            for i in indices:
                amount = attempt_rebalance(g, u, cid, cyc[i], config, ledger, totals)
                if amount is None:
                    continue
                ops += 1
                ops_this_sweep += 1
                for x in cyc[i].nodes:
                    ginis[x] = node_gini(g, x)
                imbalance = sum(ginis.values()) / len(nodes)
                operations.append(OperationRecord(ops, u, cyc[i], amount, imbalance))
                grid = math.floor(imbalance * 100 + 1e-9)
                if grid < best_grid:
                    best_grid = grid
                    samples.append(take_sample(ops))
                break
        if ops_this_sweep == 0:
            break
    if samples[-1].ops_count != ops:
        samples.append(take_sample(ops))
    return SimulationResult(g, operations, ledger, samples)
