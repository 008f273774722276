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
The simulation loop `run_simulation`, its kernel `attempt_rebalance` and
the unit tests call these same functions.  The exact comparison `_excess`
(b * kappa - c * tau) is behind the first three and band agreement, and
each floor or test on it has one home: `_is_candidate`, `_desired`,
`_receivable` and `_is_sink`, which the rules and the run's table
share.  `_check_executed` re-checks every executed operation with its
own arithmetic.

A run keeps all its derived state in one table, `RunTable`: each
node's (tau, kappa) from `node_totals`, its coefficient vector in
`incident` order and that vector's Gini, its candidate channels, and
two ints per directed hop, by hop id, each 0 below `min_amount`.  The
rules take a node's totals from the table as an argument, because
circular payments never change either total, and the check compares
each node's totals after the payment with the ones the rules used.
`RunTable.refresh` is the table's only writer, and writes in place: it
runs once over every channel when the table is made, and once over each
payment's channels, from the kernel, after the payment.  A payment moves
the balances of its own channels only, so no other entry changes.  The
run also caches each (node, channel)'s cycle candidates, once
enumerated, as a `CycleRows` of flat hop ids, and builds a candidate's
hop tuple only when it calls the kernel on that candidate.

A visit draws its channel from the table's candidate list, so
`candidate_channels` runs only in the tests, as the rule the table must
equal.  A visit scans its cycles' hop ids against the table and calls
`attempt_rebalance` only on cycles that read no 0 there, since a 0 is a
certain decline in either agreement mode.  In band mode the table
decides: the first such cycle executes, at the amount the table
predicts, or the run raises `InvariantViolation`.  In gini mode the
kernel decides, and the scan goes on after a decline; a payment larger
than the table allows raises `InvariantViolation`.

Gini agreement is a float test, `gini(shifted vector) <= before`.  From
capacities of about 10^14 sat, one satoshi moves a coefficient by less
than the float Gini resolves, and the test is no longer monotone in the
amount: a node can pass at an amount and fail below it.  So once a gini
attempt settles on its amount, each intermediary that granted more is
asked again at that amount, and the attempt declines if one grants less.
Band bounds are exact integer intervals and need no second ask.

Routing fees are tracked in a hypothetical ledger only, a `Counter` of
signed per-node msat that sums to zero: forwarding nodes are credited
what they would have charged and the initiator is debited, but no fee
ever moves channel balances and no rule reads the ledger.  So
`attempt_rebalance` records no fee: `run_simulation` tallies the fees of
its operations, in order, once the run ends.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Iterable, Mapping

from .cycles import CycleRows, Hops, Strategy, enumerate_cycles
from .model import (
    InvariantViolation,
    NetworkGraph,
    RebalanceCycle,
    apply_circular_payment,
    gini,
    mean_gini,
    node_gini,  # not called here; perfbench/tracing.py wraps it under this name
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
        if not (math.isfinite(self.convergence_epsilon) and self.convergence_epsilon >= 0):
            raise ValueError("convergence_epsilon must be finite and non-negative")
        if self.agreement_mode not in AGREEMENT_MODES:
            raise ValueError(f"agreement_mode must be one of {AGREEMENT_MODES}")


class FeeLedger(Counter):
    """Signed per-node millisatoshi totals, earned minus paid; zero-sum.

    A plain `Counter`: `ledger[node]` is a node's net fee (0 when it
    neither forwarded nor initiated), and `total()` sums the ledger.
    """


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
    """Snapshot of progress: executed operations, imbalance, sampler output."""

    ops_count: int
    imbalance: float
    metrics: Any = None


@dataclass
class SimulationResult:
    graph: NetworkGraph
    operations: list[OperationRecord]
    ledger: FeeLedger
    samples: list[MetricsSample]


def _excess(g: NetworkGraph, u: int, cid: int, totals: tuple[int, int]) -> int:
    """kappa * c * (zeta - nu) for u on `cid`, as the exact integer b * kappa - c * tau.

    `totals` is u's (tau, kappa) from `node_totals`.
    """
    tau, kappa = totals
    ch = g.channel(cid)
    return ch.balance(u) * kappa - ch.capacity * tau


def candidate_channels(g: NetworkGraph, u: int, totals: tuple[int, int]) -> list[int]:
    """Channels, in id order, where u's balance coefficient exceeds its node coefficient.

    `totals` is u's (tau, kappa) from `node_totals`.
    """
    return [cid for cid, _ in g.incident(u) if _is_candidate(_excess(g, u, cid, totals))]


def _is_candidate(excess: int) -> bool:
    """zeta > nu, from the node's `_excess`: the node may propose a rebalance on the channel."""
    return excess > 0


def _desired(excess: int, kappa: int) -> int:
    """floor(c * (zeta - nu)) clamped at 0, from a node's `_excess` on a channel and its kappa."""
    return max(excess // kappa, 0)


def _receivable(excess: int, kappa: int) -> int:
    """floor(c * (nu - zeta)): what a node can receive on a channel before its coefficient reaches nu.

    From the node's `_excess` there and its kappa; negative above nu.
    """
    return -excess // kappa


def _is_sink(excess: int) -> bool:
    """zeta < nu, from the node's `_excess`: a cycle may end on the channel."""
    return excess < 0


def desired_amount(g: NetworkGraph, u: int, cid: int, totals: tuple[int, int]) -> int:
    """floor(c * (zeta - nu)) for u on `cid`, clamped at 0; the proposed rebalance size.

    `totals` is u's (tau, kappa) from `node_totals`.  The result never
    exceeds u's balance on `cid`, since tau * c >= 0.
    """
    return _desired(_excess(g, u, cid, totals), totals[1])


def _band_bound(
    g: NetworkGraph, x: int, in_cid: int, out_cid: int, requested: int, totals: tuple[int, int]
) -> int:
    """Largest amount x forwards while both coefficients move toward nu_x.

    That is x's desired amount on the out channel, capped by what the in
    channel can receive before its coefficient reaches nu_x.
    """
    receivable = _receivable(_excess(g, x, in_cid, totals), totals[1])
    return max(min(requested, desired_amount(g, x, out_cid, totals), receivable), 0)


def _gini_bound(
    g: NetworkGraph, x: int, in_cid: int, out_cid: int, requested: int, before: float, coefficients: list[float]
) -> int:
    """Largest amount that does not raise x's Gini `before`, solved on a convex excess.

    Forwarding a moves only two of x's n coefficients, each linearly:
    z_o = (b_out - a) / c_out and z_i = (b_in + a) / c_in.  With N the
    pairwise-difference numerator sum_{k<l} |z_k - z_l| and S the
    coefficient sum, the Gini N / (n S) stays at most `before` exactly
    where h(a) = N(a) - before * n * S(a) <= 0.  N is a sum of absolute
    values of affine functions of a and S is affine, so h is convex and
    piecewise linear, and h(0) = 0: the amounts that do not raise the
    Gini form an interval [0, root].  The other n - 2 coefficients are
    sorted once with their prefix sums, so h and its slope cost one
    `bisect` per moved coefficient.  Newton's method from `bound`, where
    the Gini rises, moves left; on a convex h it never passes the root,
    and it lands on it within a few pieces.

    The float root only seeds the answer.  x's coefficient vector is
    copied from `coefficients`, x's `RunTable` entry in `incident` order,
    so its `gini` is `before` and no probe writes into the table; the
    float test `gini(vector shifted by a) <= before` decides.  The first
    probe is at `bound`, and a pass there is the answer.  The second is
    at 1 sat, and a fail there is a decline, settled after two probes and
    before any sort.  Only a call that passes at 1 builds the sorted
    others and solves for the root.  Steps that double away from the
    root's floor, 1 counting as a known pass and `bound` as a known fail,
    find an amount that passes and one that fails, and bisection between
    them ends at an a that passes while a + 1 fails (or is `bound`).  No
    amount is probed twice.

    Where the test is monotone in a, the answer is the largest passing
    amount, as a plain bisection over [0, bound] finds it.  From
    capacities of about 10^14 sat it need not be: a call may return 0
    where some larger amount passes, or an a whose test passes while
    a + 1 fails though a larger amount passes too.  Either way a call
    makes O(log bound) probes, and `attempt_rebalance` asks a node again
    at the amount the attempt settles on.
    """
    out_ch = g.channel(out_cid)
    in_ch = g.channel(in_cid)
    b_out = out_ch.balance(x)
    b_in = in_ch.balance(x)
    c_out = out_ch.capacity
    c_in = in_ch.capacity
    # receivable headroom caps the hypothetical shift at a sane coefficient
    bound = min(requested, b_out, c_in - b_in)
    if bound < 1:
        return 0
    positions = g.incident_positions(x)
    i_out = positions[out_cid]
    i_in = positions[in_cid]
    zetas = coefficients.copy()

    def feasible(a: int) -> bool:
        zetas[i_out] = (b_out - a) / c_out
        zetas[i_in] = (b_in + a) / c_in
        return gini(zetas) <= before

    if feasible(bound):
        return bound
    # most calls that fail at the bound decline outright; 1 sat settles them
    if bound == 1 or not feasible(1):
        return 0
    first, last = sorted((i_out, i_in))
    others = sorted(coefficients[:first] + coefficients[first + 1:last] + coefficients[last + 1:])
    m = len(others)
    prefix = [0.0, *accumulate(others)]
    weight = before * len(zetas)

    def excess(a: float) -> tuple[float, float]:
        """h(a) plus a constant, and h's slope just left of a."""
        z_o = (b_out - a) / c_out
        z_i = (b_in + a) / c_in
        # k others lie at or below z_o, j strictly below z_i
        k = bisect_right(others, z_o)
        j = bisect_left(others, z_i)
        # over the others, sum |z - v| = z (2c - m) + sum(others) - 2 prefix[c],
        # c counting those below z; the terms that do not move with a are dropped
        value = (
            z_o * (2 * k - m) - 2 * prefix[k]
            + z_i * (2 * j - m) - 2 * prefix[j]
            + abs(z_o - z_i) - weight * (z_o + z_i)
        )
        pair = (1 / c_out + 1 / c_in) if z_o >= z_i else -(1 / c_out + 1 / c_in)
        slope = (m - 2 * k) / c_out + (2 * j - m) / c_in - pair + weight * (1 / c_out - 1 / c_in)
        return value, slope

    origin, _ = excess(0)
    a = float(bound)
    # a convex h lies above its tangents, so each step stays right of the root
    while a > 0:
        value, slope = excess(a)
        if value <= origin or slope <= 0:
            break
        a_next = a - (value - origin) / slope
        if a_next >= a:
            break
        a = a_next
    lo = min(max(math.floor(a), 1), bound - 1)
    # step away from the root's floor, doubling, until a passing lo and a
    # failing hi bracket the answer; 1 passed and `bound` failed
    step = 1
    if lo > 1 and not feasible(lo):
        lo, hi = lo - 1, lo
        while lo > 1 and not feasible(lo):
            step *= 2
            lo, hi = max(lo - step, 1), lo
    else:
        hi = lo + 1
        while hi < bound and feasible(hi):
            step *= 2
            lo, hi = hi, min(hi + step, bound)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_agreeable_amount(
    g: NetworkGraph,
    x: int,
    in_cid: int,
    out_cid: int,
    requested: int,
    totals: tuple[int, int],
    current_gini: float,
    coefficients: list[float],
    mode: str = "band",
) -> int:
    """How much of `requested` node x agrees to forward; 0 declines.

    `totals` is x's (tau, kappa) from `node_totals`; `current_gini` and
    `coefficients` are its `node_gini` and `node_coefficients`, x's
    entries in the run's `RunTable`, which gini mode reads but never
    writes.  Band mode lets both touched coefficients move toward x's
    node coefficient without crossing it; gini mode accepts any amount
    that does not increase x's Gini, preferring the largest.  The result
    never exceeds `requested`, and is 0 when `requested` < 1.  Both
    bounds read x's balance on each channel first, so an unknown channel
    raises `KeyError` and a channel x is not on raises `ValueError`.
    """
    if in_cid == out_cid:
        raise ValueError("in and out channel must differ")
    if mode not in AGREEMENT_MODES:
        raise ValueError(f"mode must be one of {AGREEMENT_MODES}")
    if mode == "band":
        return _band_bound(g, x, in_cid, out_cid, requested, totals)
    return _gini_bound(g, x, in_cid, out_cid, requested, current_gini, coefficients)


def check_sink_condition(g: NetworkGraph, u: int, last_cid: int, totals: tuple[int, int]) -> bool:
    """True iff the cycle may end on `last_cid`: zeta(u) < nu_u there.

    `totals` is u's (tau, kappa) from `node_totals`.
    """
    return _is_sink(_excess(g, u, last_cid, totals))


class RunTable:
    """A run's only derived state: node totals, the Gini table, candidates, and two hop-cap lists.

    Every entry is local to a node or to a hop, and comes from the
    balances of that node's or hop's channels:

    - `totals[u]` is u's (tau, kappa) from `node_totals`, which no
      circular payment changes;
    - `coefficients[u]` is u's coefficient vector, balance / capacity per
      channel in `incident` order, the floats `node_coefficients` makes,
      and `ginis[u]` is its `gini`, u's `node_gini`; `ginis` is keyed in
      node order, the order `mean_gini` sums in;
    - `candidates[u]` is u's candidate channels in id order, as
      `candidate_channels` gives them: the channels where `_is_candidate`
      holds for u's `_excess`;
    - `mid` and `last` are indexed by hop id (see
      `NetworkGraph.hop_table`).

    Each hop entry bounds what any attempt can move over one hop, and
    each entry below `min_amount` is stored as 0; a cycle reads `mid` of
    its first and each middle hop and `last` of its last hop.  For the hop
    d from x to y on channel c, in band mode:

    - `mid[d]` is min(x's desired amount on c, what y can receive on c
      before its coefficient reaches nu_y), and `last[d]` is x's desired
      amount if the cycle may end at y on c (`_is_sink`, always when the
      sink condition is waived), else 0.
    - Each intermediary caps a band attempt by its two balances only, and
      every capped amount is at least `min_amount` or the attempt
      declines; so an attempt at an `amount` of at least `min_amount` and
      at most its initiator's desired amount moves min(amount, the entries
      it reads) when none of those is 0, and declines otherwise.

    In gini mode:

    - `mid[d]` is x's balance on c, and `last[d]` is the same where the
      cycle may end at y on c, else 0.
    - `_gini_bound` never returns more than min(requested, b_out,
      c_in - b_in).  b_out is the intermediary's balance on its out-hop,
      which it sends, and c_in - b_in the balance of its in-hop's sender.
      Every hop of a cycle is the in-hop or out-hop of some intermediary,
      so an attempt moves at most the least entry it reads, and a 0 there
      is a certain decline.  An attempt that reads no 0 may still
      decline.

    `config` gives the run's agreement mode, sink condition and
    `min_amount`.  `refresh` is the table's only writer, and writes in
    place: it runs over every channel when the table is made, and over a
    payment's channels after it is made.  A payment moves the balances of
    its own channels only, and no node's totals, so no other entry
    changes.
    """

    __slots__ = ("config", "totals", "coefficients", "ginis", "mid", "last", "candidates")

    def __init__(self, g: NetworkGraph, config: SimulationConfig):
        nodes = g.nodes()
        size = 2 * g.num_channels()
        self.config = config
        self.totals = {u: node_totals(g, u) for u in nodes}
        self.coefficients = {u: [0.0] * len(g.incident(u)) for u in nodes}
        self.ginis = dict.fromkeys(nodes, 0.0)
        self.mid = [0] * size
        self.last = [0] * size
        self.candidates: dict[int, list[int]] = {u: [] for u in nodes}
        self.refresh(g, g.channels)

    def refresh(self, g: NetworkGraph, cids: Iterable[int]) -> None:
        """Rewrite every entry the balances of the channels in `cids` feed.

        Per channel: both hops, and both endpoints' candidate and
        coefficient entries, from one `_excess` per endpoint.  Then the
        Gini of each endpoint it touched, once per node.
        """
        touched = set()
        for cid in cids:
            ch = g.channels[cid]
            a, b = ch.node_a, ch.node_b
            totals_a, totals_b = self.totals[a], self.totals[b]
            excess_a = _excess(g, a, cid, totals_a)
            excess_b = _excess(g, b, cid, totals_b)
            d = g.hop_id(a, cid)
            self._set(d, ch.balance_a, excess_a, totals_a[1], excess_b, totals_b[1])
            self._set(d ^ 1, ch.balance_b, excess_b, totals_b[1], excess_a, totals_a[1])
            self._mark(self.candidates[a], cid, _is_candidate(excess_a))
            self._mark(self.candidates[b], cid, _is_candidate(excess_b))
            self.coefficients[a][g.incident_positions(a)[cid]] = ch.balance_a / ch.capacity
            self.coefficients[b][g.incident_positions(b)[cid]] = ch.balance_b / ch.capacity
            touched.update((a, b))
        for u in touched:
            self.ginis[u] = gini(self.coefficients[u])

    @staticmethod
    def _mark(row: list[int], cid: int, candidate: bool) -> None:
        """`refresh`'s write of one node's candidate list: `cid` in it, in id order, iff `candidate`."""
        i = bisect_left(row, cid)
        if i < len(row) and row[i] == cid:
            if not candidate:
                del row[i]
        elif candidate:
            row.insert(i, cid)

    def _set(self, d: int, balance: int, sent: int, sender_kappa: int, received: int, receiver_kappa: int) -> None:
        """`refresh`'s write of hop d, from its sender's balance and both endpoints' `_excess` on the channel.

        The table's one floor: an entry below `min_amount` is stored as 0.
        """
        config = self.config
        if config.agreement_mode == "band":
            cap = _desired(sent, sender_kappa)
            mid = min(cap, _receivable(received, receiver_kappa))
        else:
            cap = mid = balance
        floor = config.min_amount
        self.mid[d] = mid if mid >= floor else 0
        self.last[d] = cap if cap >= floor and (not config.require_sink_condition or _is_sink(received)) else 0


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
        ledger[sender] += fee
        total += fee
    ledger[cycle.initiator] -= total


def attempt_rebalance(g: NetworkGraph, hops: Hops, amount: int, table: RunTable) -> tuple[RebalanceCycle, int] | None:
    """Try one circular rebalance; returns the executed cycle and amount, or None.

    The initiator u proposes `amount` on the first of `hops`.  Every rule
    reads a cycle node's totals, Gini and coefficient vector from
    `table`, the run's `RunTable`, and the run's knobs from its config.
    The sink condition is checked unless the config waives it (easier
    path finding at the cost of small oscillations), and every
    intermediate node caps the amount by its agreement rule, declining
    below `min_amount`.  The amount never exceeds u's balance on the first
    hop, because the first intermediary can receive no more.  In gini
    mode each intermediary that granted more than the settled amount is
    then asked again at it, since the float test need not be monotone
    (see the module docstring), and a grant below it declines.  Only then
    is the `RebalanceCycle` built (a malformed one raises `ValueError`)
    and the payment applied atomically.  The kernel keeps the cycle
    nodes' Ginis from before, has `table.refresh` rewrite the payment's
    channels, and checks the payment against both.  A decline leaves the
    state and the table untouched.  No fee is recorded here: the run
    tallies fees from its operations once it ends.

    The run calls the kernel only on cycles whose hop entries in the
    table are all nonzero.
    """
    config = table.config
    totals, ginis, coefficients = table.totals, table.ginis, table.coefficients
    u = hops[0][0]
    if config.require_sink_condition and not check_sink_condition(g, u, hops[-1][2], totals[u]):
        return None
    mode = config.agreement_mode
    grants = []
    for (_, _, in_cid), (x, _, out_cid) in zip(hops, hops[1:]):
        amount = max_agreeable_amount(g, x, in_cid, out_cid, amount, totals[x], ginis[x], coefficients[x], mode)
        if amount < config.min_amount:
            return None
        grants.append((amount, x, in_cid, out_cid))
    if mode == "gini":
        # the float Gini test need not hold below an amount it passed, so
        # each intermediary a later hop cut is asked again at the final amount
        for granted, x, in_cid, out_cid in grants:
            if granted > amount and max_agreeable_amount(
                g, x, in_cid, out_cid, amount, totals[x], ginis[x], coefficients[x], mode
            ) < amount:
                return None
    cycle = RebalanceCycle(u, hops)
    before = {x: ginis[x] for x in cycle.nodes}
    apply_circular_payment(g, cycle, amount)
    table.refresh(g, cycle.channel_ids)
    _check_executed(g, hops, table, before)
    return cycle, amount


def _check_executed(g: NetworkGraph, hops: Hops, table: RunTable, before: Mapping[int, float]) -> None:
    """Post-conditions of one executed payment; raises InvariantViolation.

    Capacities and node totals are as the rules saw them.  Each
    intermediary either stayed on its side of nu on both channels (band
    mode) or did not raise its Gini (gini mode): its Gini in the
    refreshed `table` is at most its Gini `before` the payment.
    """
    totals, mode = table.totals, table.config.agreement_mode
    for _, _, cid in hops:
        ch = g.channels[cid]
        if ch.balance_a + ch.balance_b != ch.capacity:
            raise InvariantViolation(f"channel {cid} lost capacity conservation")
    for x, _, _ in hops:
        if node_totals(g, x) != totals[x]:
            raise InvariantViolation(f"node {x} total funds changed")
    for (_, _, in_cid), (x, _, out_cid) in zip(hops, hops[1:]):
        if mode == "band":
            tau, kappa = totals[x]
            out_ch = g.channels[out_cid]
            in_ch = g.channels[in_cid]
            # moved toward nu without crossing it, on both channels
            if out_ch.balance(x) * kappa < tau * out_ch.capacity:
                raise InvariantViolation(f"node {x} crossed nu on its out channel")
            if in_ch.balance(x) * kappa > tau * in_ch.capacity:
                raise InvariantViolation(f"node {x} crossed nu on its in channel")
        elif table.ginis[x] > before[x]:
            raise InvariantViolation(f"node {x} Gini increased")


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle `x` in place exactly as `rng.shuffle(x)` does, and advance `rng` as it would.

    CPython's `Random.shuffle` is the backward Fisher-Yates shuffle: for i
    from len(x) - 1 down to 1 it swaps x[i] with x[j], j = `_randbelow`(i + 1),
    which draws `getrandbits(k)`, k = (i + 1).bit_length(), until the draw
    is at most i.  This is that loop with the draw written inline, since a
    visit shuffles every index of its key's cycles and the method call per
    index was most of the shuffle's time.  k changes only where i + 1 is a
    power of two, so the indices are taken in blocks of equal k.
    """
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        # the indices from `top` down to `low` all draw k bits
        low = (1 << (k - 1)) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def run_simulation(
    g: NetworkGraph,
    config: SimulationConfig,
    sampler: Callable[[NetworkGraph], Any] | None = None,
) -> SimulationResult:
    """Run seeded sweeps of the greedy heuristic until no progress is made.

    Each sweep visits the nodes in seeded-random order; an active node
    (Gini above the convergence threshold, nonempty candidate set) picks a
    random candidate channel, proposes its desired amount there once (split
    by `mpp_divisor` when the strategy splits amounts), and works through
    its cycle candidates in seeded-shuffled order until one executes.  The
    candidates of a (node, channel) are enumerated at its first visit and
    cached for the run as a `CycleRows`; a visit shuffles their indices
    with `_shuffle`, which permutes and draws exactly as `rng.shuffle` of
    the candidates would, and so does each sweep's node order.  When the
    proposal is below `min_amount`, no cycle is tried; the shuffle still
    runs, so the random stream is the same.

    Every run builds one `RunTable` at its start and never writes to it;
    the kernel has it refreshed after each payment.  A visit reads the
    active node's Gini and candidate channels from it, which the table
    keeps equal to `node_gini` and `candidate_channels` (so the draw is
    the same), and then its cycle candidates, in one loop.  The visit
    ends at once when the table's `mid` entry of the first hop is 0.
    Otherwise it scans the candidates' hop ids in order
    (`CycleRows.first_reaching`) for the next one that reads no 0 in the
    table, and calls `attempt_rebalance` on it.  In band mode that
    candidate is the first that executes, and the kernel must move the
    predicted amount, or the run raises `InvariantViolation`.  In gini
    mode the kernel may decline, and the scan then goes on from the next
    candidate; a payment must move at most the table's bound, or the run
    raises `InvariantViolation`.  The candidates it skips would all
    decline, and a decline draws no random number and writes no state,
    so it executes the operations that calling the kernel on each
    candidate in turn would.

    A sweep starts, and a visit within it, only while fewer than
    `max_operations` have executed, and the run ends after a sweep that
    executes none.  Whenever the network imbalance first falls below a new
    0.01 grid value, `sampler` is called once on the graph and a sample
    stores what it returns, as is.  After the last sweep the fees of every
    operation, in order, go into the run's one `FeeLedger`, which must sum
    to zero.  Mutates `g` in place and is fully deterministic in (g,
    config).
    """
    rng = random.Random(config.seed)
    nodes = g.nodes()
    if not nodes:
        raise ValueError("cannot simulate an empty graph")
    table = RunTable(g, config)
    totals, ginis, mid, last = table.totals, table.ginis, table.mid, table.last
    divisor = config.mpp_divisor if config.strategy.splits_amount else 1
    imbalance = mean_gini(ginis.values())
    band = config.agreement_mode == "band"

    def take_sample(ops_count: int) -> MetricsSample:
        return MetricsSample(ops_count, imbalance, sampler(g) if sampler is not None else None)

    operations: list[OperationRecord] = []
    samples = [take_sample(0)]
    best_grid = math.floor(imbalance * 100 + 1e-9)
    cycle_cache: dict[tuple[int, int], CycleRows] = {}
    ops = 0
    while ops < config.max_operations:
        order = nodes[:]
        _shuffle(rng, order)
        swept = ops
        for u in order:
            if ops >= config.max_operations:
                break
            if ginis[u] <= config.convergence_epsilon:
                continue
            candidates = table.candidates[u]
            if not candidates:
                continue
            cid = rng.choice(candidates)
            key = (u, cid)
            if key not in cycle_cache:
                cycle_cache[key] = enumerate_cycles(g, u, cid, config.strategy, config.cycle_cap)
            cyc = cycle_cache[key]
            if not cyc:
                continue
            tries = list(range(len(cyc)))
            _shuffle(rng, tries)
            # u proposes once per visit: a declined attempt moves no balance
            amount = desired_amount(g, u, cid, totals[u]) // divisor
            if amount < config.min_amount:
                continue
            # the first hop's entry caps every cycle of the visit
            capped = min(amount, mid[g.hop_id(u, cid)])
            if not capped:
                continue
            executed = None
            # after a gini decline the scan goes on from the next index
            pending = iter(tries)
            while executed is None and (found := cyc.first_reaching(pending, mid, last)) is not None:
                i, bound = found[0], min(capped, found[1])
                executed = attempt_rebalance(g, cyc[i], amount, table)
                if band and (executed is None or executed[1] != bound):
                    outcome = "declined" if executed is None else f"moved {executed[1]}"
                    raise InvariantViolation(f"hop caps predicted {bound} on cycle {cyc[i]}; the kernel {outcome}")
                if executed is not None and executed[1] > bound:
                    raise InvariantViolation(
                        f"hop caps bound {bound} on cycle {cyc[i]}; the kernel moved {executed[1]}"
                    )
            if executed is None:
                continue
            cycle, moved = executed
            ops += 1
            imbalance = mean_gini(ginis.values())
            operations.append(OperationRecord(ops, u, cycle, moved, imbalance))
            grid = math.floor(imbalance * 100 + 1e-9)
            if grid < best_grid:
                best_grid = grid
                samples.append(take_sample(ops))
        if ops == swept:
            break
    if samples[-1].ops_count != ops:
        samples.append(take_sample(ops))
    ledger = FeeLedger()
    for op in operations:
        record_fees(ledger, g, op.cycle, op.amount)
    if ledger.total() != 0:
        raise InvariantViolation("fee ledger lost zero-sum")
    return SimulationResult(g, operations, ledger, samples)
