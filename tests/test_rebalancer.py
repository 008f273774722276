import copy
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lnbalance
from graphs import make_graph
from lnbalance import rebalancer
from lnbalance.cycles import Strategy, enumerate_cycles
from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc
from lnbalance.model import (
    InvariantViolation,
    RebalanceCycle,
    gini,
    network_imbalance,
    node_coefficients,
    node_gini,
    node_totals,
)
from lnbalance.rebalancer import (
    FeeLedger,
    RunTable,
    SimulationConfig,
    attempt_rebalance,
    candidate_channels,
    check_sink_condition,
    desired_amount,
    max_agreeable_amount,
    record_fees,
    run_simulation,
)


def shift(g, cid, sender, amount):
    """Move `amount` from `sender`'s side of channel `cid` to the peer's, unchecked."""
    ch = g.channels[cid]
    if sender == ch.node_a:
        ch.balance_a -= amount
        ch.balance_b += amount
    else:
        ch.balance_b -= amount
        ch.balance_a += amount


def skewed_triangle():
    """Funds oriented 0->1->2->0; one rebalance of 5 evens everything."""
    return make_graph([(0, 1, 10, 10), (1, 2, 10, 10), (2, 0, 10, 10)])


TRIANGLE_HOPS = ((0, 1, 0), (1, 2, 1), (2, 0, 2))


def triangle_cycle():
    return RebalanceCycle(0, TRIANGLE_HOPS)


def totals_of(g):
    return {u: node_totals(g, u) for u in g.nodes()}


def proposal_of(g):
    """Node 0's desired amount on channel 0, the first of `TRIANGLE_HOPS`, unsplit."""
    return desired_amount(g, 0, 0, node_totals(g, 0))


def gini_table(g):
    """Every node's (`node_gini`, `node_coefficients`), from the balances: what a `RunTable` must hold."""
    return {u: node_gini(g, u) for u in g.nodes()}, {u: node_coefficients(g, u) for u in g.nodes()}


def table_of(g, x):
    """x's Gini-table entries, as `max_agreeable_amount` takes them."""
    return {"current_gini": node_gini(g, x), "coefficients": node_coefficients(g, x)}


def synthetic(n_nodes, degree, seed):
    """The largest SCC of a seeded `generate_synthetic` graph, funds split by a coin flip of the same seed."""
    return largest_scc(allocate_funds_coinflip(generate_synthetic(n_nodes, degree, (10_000, 1_000_000), seed), seed))


@st.composite
def star_specs(draw):
    """make_graph specs of 2-6 channels around node 0, two of them parallel."""
    n = draw(st.integers(min_value=2, max_value=6))
    peers = list(range(1, n))
    peers.append(draw(st.sampled_from(peers)))
    specs = []
    for peer in draw(st.permutations(peers)):
        cap = draw(st.one_of(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=10**6)))
        specs.append((0, peer, cap, draw(st.integers(min_value=0, max_value=cap))))
    return specs


def config(**kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("strategy", Strategy.CYCLE4)
    return SimulationConfig(**kwargs)


class TestCandidateChannels:
    def test_overfunded_channel_selected(self):
        g = make_graph([(0, 1, 10, 10), (0, 2, 10, 0)])
        assert candidate_channels(g, 0, node_totals(g, 0)) == [0]

    def test_balanced_node_has_none(self):
        g = make_graph([(0, 1, 10, 5), (0, 2, 10, 5)])
        assert candidate_channels(g, 0, node_totals(g, 0)) == []

    def test_single_channel_node_has_none(self):
        g = make_graph([(0, 1, 10, 9)])
        assert candidate_channels(g, 0, node_totals(g, 0)) == []


class TestDesiredAmount:
    def test_exact_floor(self):
        # nu = 0.5 exactly, zeta = 0.8: floor(1000 * 0.3) = 300
        g = make_graph([(0, 1, 1000, 800), (0, 2, 1000, 200)])
        assert desired_amount(g, 0, 0, node_totals(g, 0)) == 300

    def test_tiny_gap_floors_to_zero(self):
        # gap of 0.0004 on capacity 1000 floors to 0
        g = make_graph([(0, 1, 1000, 500), (0, 2, 10000, 4996)])
        assert candidate_channels(g, 0, node_totals(g, 0)) == [0]
        assert desired_amount(g, 0, 0, node_totals(g, 0)) == 0

    def test_float_rounding_does_not_undershoot(self):
        # 10^6 * (0.8 - 0.5) must be exactly 300000, not 299999
        g = make_graph([(0, 1, 10**6, 8 * 10**5), (0, 2, 10**6, 2 * 10**5)])
        assert desired_amount(g, 0, 0, node_totals(g, 0)) == 300_000


class TestMaxAgreeableAmount:
    def test_band_example(self):
        # x = node 0: out 8/10, in 2/10, nu = 0.5
        g = make_graph([(0, 1, 10, 8), (0, 2, 10, 2)])
        assert max_agreeable_amount(
            g, 0, in_cid=1, out_cid=0, requested=10, totals=node_totals(g, 0), **table_of(g, 0)
        ) == 3

    def test_band_declines_when_out_below_nu(self):
        g = make_graph([(0, 1, 10, 2), (0, 2, 10, 8)])
        assert max_agreeable_amount(
            g, 0, in_cid=1, out_cid=0, requested=5, totals=node_totals(g, 0), **table_of(g, 0)
        ) == 0

    def test_band_small_request_granted(self):
        g = make_graph([(0, 1, 10, 10), (0, 2, 10, 0)])
        assert max_agreeable_amount(
            g, 0, in_cid=1, out_cid=0, requested=1, totals=node_totals(g, 0), **table_of(g, 0)
        ) == 1

    def test_same_channel_rejected(self):
        g = make_graph([(0, 1, 10, 5), (0, 2, 10, 5)])
        with pytest.raises(ValueError):
            max_agreeable_amount(
                g, 0, in_cid=0, out_cid=0, requested=1, totals=node_totals(g, 0), **table_of(g, 0)
            )

    @pytest.mark.parametrize("mode", ["band", "gini"])
    @pytest.mark.parametrize("requested", [0, 5])
    def test_channel_errors_raised_for_any_request(self, mode, requested):
        # node 0 is on channels 0 and 2 but not on channel 1
        g = make_graph([(0, 1, 10, 8), (1, 2, 10, 5), (0, 2, 10, 2)])
        totals, before, kept = node_totals(g, 0), node_gini(g, 0), node_coefficients(g, 0)
        with pytest.raises(ValueError, match=r"^node \d+ is not an endpoint of channel \d+$"):
            max_agreeable_amount(g, 0, 0, 1, requested, totals, before, kept, mode)
        with pytest.raises(KeyError, match="unknown channel"):
            max_agreeable_amount(g, 0, 0, 99, requested, totals, before, kept, mode)

    def test_gini_mode_never_increases_gini(self):
        g = make_graph([(0, 1, 10, 8), (0, 2, 10, 2), (0, 3, 50, 25)])
        before = node_gini(g, 0)
        granted = max_agreeable_amount(
            g, 0, in_cid=1, out_cid=0, requested=10, totals=node_totals(g, 0), **table_of(g, 0), mode="gini",
        )
        assert granted > 0
        shift(g, 0, 0, granted)
        shift(g, 1, 2, granted)
        assert node_gini(g, 0) <= before

    def test_gini_mode_can_exceed_band(self):
        # out way above nu, in slightly below: band is tight, gini allows more
        g = make_graph([(0, 1, 100, 100), (0, 2, 100, 40), (0, 3, 100, 0)])
        band = max_agreeable_amount(
            g, 0, in_cid=2, out_cid=0, requested=100, totals=node_totals(g, 0), **table_of(g, 0)
        )
        gini_amt = max_agreeable_amount(
            g, 0, in_cid=2, out_cid=0, requested=100, totals=node_totals(g, 0), **table_of(g, 0), mode="gini",
        )
        assert gini_amt >= band

    @settings(max_examples=300, deadline=None)
    @given(specs=star_specs(), data=st.data())
    def test_gini_bound_is_the_largest_amount_not_raising_gini(self, specs, data):
        out_cid, in_cid = data.draw(st.permutations(range(len(specs))))[:2]
        _, _, cap_out, b_out = specs[out_cid]
        _, _, cap_in, b_in = specs[in_cid]
        requested = data.draw(st.integers(min_value=1, max_value=cap_out + 1))
        g = make_graph(specs)
        granted = max_agreeable_amount(
            g, 0, in_cid, out_cid, requested, node_totals(g, 0), **table_of(g, 0), mode="gini"
        )

        def gini_after(amount):
            # rebuilt from shifted balances: shares no code with the bisection's probes
            shifted = list(specs)
            shifted[out_cid] = (0, specs[out_cid][1], cap_out, b_out - amount)
            shifted[in_cid] = (0, specs[in_cid][1], cap_in, b_in + amount)
            return node_gini(make_graph(shifted), 0)

        bound = min(requested, b_out, cap_in - b_in)
        before = gini_after(0)
        assert 0 <= granted <= bound
        assert gini_after(granted) <= before
        if granted < bound:
            assert gini_after(granted + 1) > before

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=2, max_value=10**6),
        st.data(),
    )
    def test_band_never_crosses_nu(self, cap_out, cap_in, cap_other, data):
        b_out = data.draw(st.integers(min_value=0, max_value=cap_out))
        b_in = data.draw(st.integers(min_value=0, max_value=cap_in))
        b_other = data.draw(st.integers(min_value=0, max_value=cap_other))
        requested = data.draw(st.integers(min_value=1, max_value=cap_out + 1))
        g = make_graph([(0, 1, cap_out, b_out), (0, 2, cap_in, b_in), (0, 3, cap_other, b_other)])
        granted = max_agreeable_amount(
            g, 0, in_cid=1, out_cid=0, requested=requested, totals=node_totals(g, 0), **table_of(g, 0)
        )
        assert 0 <= granted <= min(requested, b_out)
        if granted:
            tau = b_out + b_in + b_other
            kappa = cap_out + cap_in + cap_other
            # still on the original side of nu after the shift
            assert (b_out - granted) * kappa >= tau * cap_out
            assert (b_in + granted) * kappa <= tau * cap_in


def bisected_gini_bound(g, x, in_cid, out_cid, requested, before, coefficients):
    """Reference oracle for the gini bound: bisection over the same float test.

    The amounts that do not raise x's Gini form an interval starting at 0,
    so bisection finds its end with about log2(bound) full `gini` probes.
    It takes the kept `coefficients` as `_gini_bound` does, but builds its
    own vector from the balances.
    """
    out_ch = g.channels[out_cid]
    in_ch = g.channels[in_cid]
    b_out = out_ch.balance(x)
    b_in = in_ch.balance(x)
    bound = min(requested, b_out, in_ch.capacity - b_in)
    if bound < 1:
        return 0
    cids = [cid for cid, _ in g.incident(x)]
    zetas = [g.channels[cid].balance(x) / g.channels[cid].capacity for cid in cids]
    i_out = cids.index(out_cid)
    i_in = cids.index(in_cid)

    def feasible(a):
        zetas[i_out] = (b_out - a) / out_ch.capacity
        zetas[i_in] = (b_in + a) / in_ch.capacity
        return gini(zetas) <= before

    if feasible(bound):
        return bound
    lo, hi = 0, bound - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


@st.composite
def wide_star(draw):
    """(specs, out_cid, in_cid, requested) for a star of 2-120 channels around node 0.

    Capacities come from a pool of at most four values and balances often
    sit at 0, a quarter, a half or all of the capacity, so coefficients
    tie; the in channel may take the out channel's capacity.  `requested`
    runs from 1 to one past the out balance.
    """
    n = draw(st.integers(min_value=2, max_value=120))
    pool = draw(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=4))
    specs = []
    for peer in range(1, n + 1):
        cap = draw(st.sampled_from(pool))
        bal = draw(st.one_of(st.sampled_from([0, cap // 4, cap // 2, cap]), st.integers(min_value=0, max_value=cap)))
        specs.append((0, peer, cap, bal))
    out_cid = draw(st.integers(min_value=0, max_value=n - 1))
    in_cid = draw(st.integers(min_value=0, max_value=n - 2))
    in_cid += in_cid >= out_cid
    if draw(st.booleans()):
        cap = specs[out_cid][2]
        specs[in_cid] = (0, specs[in_cid][1], cap, draw(st.integers(min_value=0, max_value=cap)))
    requested = draw(st.integers(min_value=1, max_value=specs[out_cid][3] + 1))
    return specs, out_cid, in_cid, requested


@settings(max_examples=100, deadline=None)
@given(case=wide_star())
def test_gini_bound_matches_the_bisection(case):
    specs, out_cid, in_cid, requested = case
    g = make_graph(specs)
    before = node_gini(g, 0)
    kept = node_coefficients(g, 0)
    granted = max_agreeable_amount(g, 0, in_cid, out_cid, requested, node_totals(g, 0), before, kept, mode="gini")
    assert granted == bisected_gini_bound(g, 0, in_cid, out_cid, requested, before, kept)


@settings(max_examples=100, deadline=None)
@given(case=wide_star())
def test_gini_bound_probes_never_write_into_the_table(case):
    """Where the probe at the bound fails, Newton and the bracket probe on; every probe shifts a copy."""
    specs, out_cid, in_cid, requested = case
    g = make_graph(specs)
    kept = node_coefficients(g, 0)
    granted = max_agreeable_amount(g, 0, in_cid, out_cid, requested, node_totals(g, 0), gini(kept), kept, "gini")
    assume(granted < min(requested, specs[out_cid][3], specs[in_cid][2] - specs[in_cid][3]))
    assert kept == node_coefficients(g, 0)


def test_gini_run_matches_the_bisection(monkeypatch):
    records = generate_synthetic(200, 5, (10_000, 10_000_000), 5)

    def graph():
        return largest_scc(allocate_funds_coinflip(records, 5))

    cfg = config(seed=5, agreement_mode="gini", max_operations=200)
    solved = run_simulation(graph(), cfg).operations
    assert len(solved) == 200
    monkeypatch.setattr(rebalancer, "_gini_bound", bisected_gini_bound)
    assert run_simulation(graph(), cfg).operations == solved


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gini_bound_probes_grow_with_log_bound(data):
    """One bound call makes O(log bound) probes, even where float coefficients blur single satoshi."""
    n = data.draw(st.integers(min_value=3, max_value=120))
    share = st.floats(min_value=0, max_value=1)
    specs = []
    for peer in range(1, n + 1):
        cap = data.draw(st.integers(min_value=10**16, max_value=10**18))
        specs.append((0, peer, cap, min(cap, int(cap * data.draw(share)))))  # the float product may round past cap
    out_cid, in_cid = data.draw(st.permutations(range(n)))[:2]
    _, _, cap_out, b_out = specs[out_cid]
    _, _, cap_in, b_in = specs[in_cid]
    requested = max(1, int((b_out + 1) * data.draw(share)))
    g = make_graph(specs)
    before = node_gini(g, 0)
    probes = 0

    def counted(values):
        nonlocal probes
        probes += 1
        return gini(values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rebalancer, "gini", counted)
        granted = rebalancer._gini_bound(g, 0, in_cid, out_cid, requested, before, node_coefficients(g, 0))

    bound = min(requested, b_out, cap_in - b_in)
    assert probes <= 2 * (bound - 1).bit_length() + 4  # (bound - 1).bit_length() is ceil(log2 bound)
    if granted == 0:
        # a decline is settled by the probes at the bound and at 1 sat
        assert probes == min(max(bound, 0), 2)

    def passes(amount):
        shifted = list(specs)
        shifted[out_cid] = (0, specs[out_cid][1], cap_out, b_out - amount)
        shifted[in_cid] = (0, specs[in_cid][1], cap_in, b_in + amount)
        return node_gini(make_graph(shifted), 0) <= before

    assert 0 <= granted <= bound
    if granted < bound:
        assert passes(granted)
        assert granted + 1 == bound or not passes(granted + 1)


def test_gini_bound_decline_makes_two_probes():
    """Moving funds from x's emptiest channel into its fullest raises its Gini at any amount:
    the probes at the bound and at 1 sat settle the call."""
    g = make_graph([(0, 1, 10, 2), (0, 2, 10, 8), (0, 3, 10, 5)])
    probes = []

    def counted(values):
        probes.append(tuple(values))
        return gini(values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rebalancer, "gini", counted)
        granted = rebalancer._gini_bound(g, 0, 1, 0, 5, node_gini(g, 0), node_coefficients(g, 0))
    assert granted == 0
    assert probes == [(0.0, 1.0, 0.5), (0.1, 0.9, 0.5)]


@settings(max_examples=300, deadline=None)
@given(specs=star_specs())
def test_band_rules_match_rational_definitions(specs):
    """zeta > nu, zeta < nu and floor(c * (zeta - nu)) clamped at 0, in exact rationals."""
    g = make_graph(specs)
    for u in g.nodes():
        totals = node_totals(g, u)
        incident = [(cid, g.channels[cid]) for cid, _ in g.incident(u)]
        nu = Fraction(sum(ch.balance(u) for _, ch in incident), sum(ch.capacity for _, ch in incident))
        zetas = {cid: Fraction(ch.balance(u), ch.capacity) for cid, ch in incident}
        assert candidate_channels(g, u, totals) == [cid for cid, _ in incident if zetas[cid] > nu]
        for cid, ch in incident:
            assert check_sink_condition(g, u, cid, totals) is (zetas[cid] < nu)
            expected = max(math.floor(ch.capacity * (zetas[cid] - nu)), 0)
            assert desired_amount(g, u, cid, totals) == expected


def weighted_gini(g, u):
    """u's capacity-weighted Gini, sum |b_i c_j - b_j c_i| / (2 kappa tau) over its channels, exact."""
    sides = [(g.channels[cid].balance(u), g.channels[cid].capacity) for cid, _ in g.incident(u)]
    tau, kappa = node_totals(g, u)
    if tau == 0:
        return Fraction(0)
    spread = sum(abs(bi * cj - bj * ci) for bi, ci in sides for bj, cj in sides)
    return Fraction(spread, 2 * kappa * tau)


@settings(max_examples=300, deadline=None)
@given(specs=star_specs(), data=st.data())
def test_band_moves_never_raise_the_capacity_weighted_gini(specs, data):
    """Band agreement leaves the intermediary no worse off in the Gini weighted by capacity.

    The weighted numerator is convex in the amount and the denominator
    fixed, so not rising at the granted amount means not rising at any
    smaller one; and every smaller amount is granted when requested.
    """
    out_cid, in_cid = data.draw(st.permutations(range(len(specs))))[:2]
    requested = data.draw(st.integers(min_value=1, max_value=specs[out_cid][2] + 1))
    g = make_graph(specs)
    before = weighted_gini(g, 0)
    granted = max_agreeable_amount(g, 0, in_cid, out_cid, requested, node_totals(g, 0), **table_of(g, 0))
    shift(g, out_cid, 0, granted)
    shift(g, in_cid, specs[in_cid][1], granted)
    assert weighted_gini(g, 0) <= before


def test_band_move_can_raise_the_unweighted_gini():
    # nu = 10 / 30; out channel 1 goes 5 -> 2 of 5, in channel 0 goes 3 -> 6 of 23
    g = make_graph([(0, 1, 23, 3), (0, 2, 5, 5), (0, 3, 2, 2)])
    assert max_agreeable_amount(g, 0, in_cid=0, out_cid=1, requested=3, totals=node_totals(g, 0), **table_of(g, 0)) == 3
    before = (node_gini(g, 0), weighted_gini(g, 0))
    shift(g, 1, 0, 3)
    shift(g, 0, 1, 3)
    after = (node_gini(g, 0), weighted_gini(g, 0))
    assert before == (pytest.approx(0.272, abs=5e-4), Fraction(7, 15))
    assert after == (pytest.approx(0.297, abs=5e-4), Fraction(14, 75))


class TestSinkCondition:
    def test_underfunded_sink_is_true(self):
        g = make_graph([(0, 1, 10, 2), (0, 2, 10, 8)])
        assert check_sink_condition(g, 0, 0, node_totals(g, 0)) is True

    def test_equal_is_false(self):
        g = make_graph([(0, 1, 10, 5), (0, 2, 10, 5)])
        assert check_sink_condition(g, 0, 0, node_totals(g, 0)) is False


class TestRecordFees:
    def test_single_intermediary_fee(self):
        g = make_graph([(0, 1, 10**6, 10**6), (1, 0, 10**6, 10**6)])
        cycle = RebalanceCycle(0, ((0, 1, 0), (1, 0, 1)))
        ledger = FeeLedger()
        record_fees(ledger, g, cycle, 50_000)
        assert ledger[1] == 1050  # 1000 base + 50,000,000 msat * 1 ppm
        assert ledger[0] == -1050
        assert ledger.total() == 0

    def test_fee_parameters_respected(self):
        g = make_graph([(0, 1, 1000, 1000, 0, 0), (1, 2, 1000, 1000, 500, 100), (2, 0, 1000, 0, 21, 10**6)])
        cycle = RebalanceCycle(0, ((0, 1, 0), (1, 2, 1), (2, 0, 2)))
        ledger = FeeLedger()
        record_fees(ledger, g, cycle, 10)
        assert ledger[1] == 500 + (100 * 10 * 1000) // 10**6  # 501
        assert ledger[2] == 21 + (10**6 * 10 * 1000) // 10**6  # 10021
        assert ledger[0] == -(501 + 10021)

    def test_zero_sum_over_many_records(self):
        g = skewed_triangle()
        ledger = FeeLedger()
        for amount in (1, 7, 501):
            record_fees(ledger, g, triangle_cycle(), amount)
        assert ledger.total() == 0


class TestAttemptRebalance:
    def test_triangle_executes_five(self):
        g = skewed_triangle()
        assert proposal_of(g) == 5
        cycle, amount = attempt_rebalance(g, TRIANGLE_HOPS, 5, RunTable(g, config()))
        assert cycle == triangle_cycle()
        assert amount == 5
        assert network_imbalance(g) == 0.0
        for u in g.nodes():
            assert node_gini(g, u) == 0.0

    def test_declines_when_intermediate_refuses(self):
        # node 1 has nothing on its outgoing channel
        g = make_graph([(0, 1, 10, 10), (1, 2, 10, 0), (2, 0, 10, 10)])
        before = [(c.balance_a, c.balance_b) for c in g.channels.values()]
        outcome = attempt_rebalance(g, TRIANGLE_HOPS, proposal_of(g), RunTable(g, config()))
        assert outcome is None
        assert [(c.balance_a, c.balance_b) for c in g.channels.values()] == before

    def test_declines_on_zero_desired(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])
        assert proposal_of(g) == 0
        assert attempt_rebalance(g, TRIANGLE_HOPS, 0, RunTable(g, config())) is None

    def test_sink_condition_blocks(self):
        # initiator's receiving side of the last channel sits above its nu
        def build():
            return make_graph(
                [(0, 1, 10, 10), (1, 2, 10, 10), (2, 0, 10, 4), (0, 3, 10, 0)]
            )

        g = build()
        amount = proposal_of(g)
        assert attempt_rebalance(g, TRIANGLE_HOPS, amount, RunTable(g, config())) is None
        relaxed = config(require_sink_condition=False)
        g = build()
        assert attempt_rebalance(g, TRIANGLE_HOPS, amount, RunTable(g, relaxed))[1] == 2

    def test_min_amount_threshold(self):
        # a proposal below min_amount is declined at the first intermediary
        g = skewed_triangle()
        cfg = config(min_amount=6)
        assert attempt_rebalance(g, TRIANGLE_HOPS, proposal_of(g), RunTable(g, cfg)) is None

    def test_gini_table_rewritten_for_cycle_nodes_only(self):
        # the skewed triangle plus node 3, off the cycle, with an uneven Gini
        g = make_graph([(0, 1, 10, 10), (1, 2, 10, 10), (2, 0, 10, 10), (0, 3, 10, 5), (3, 4, 10, 2)])
        amount = proposal_of(g)

        def entries(table):
            return table.totals, table.coefficients, table.ginis, table.mid, table.last, table.candidates

        table = RunTable(g, config(min_amount=6))
        start = copy.deepcopy(table)
        assert attempt_rebalance(g, TRIANGLE_HOPS, amount, table) is None
        assert entries(table) == entries(start)
        assert (table.ginis, table.coefficients) == gini_table(g)
        table = RunTable(g, config())
        start = copy.deepcopy(table)
        cycle, _ = attempt_rebalance(g, TRIANGLE_HOPS, amount, table)
        ginis, coefficients = table.ginis, table.coefficients
        assert (ginis, coefficients) == gini_table(g)
        assert {u for u in ginis if ginis[u] != start.ginis[u]} == set(cycle.nodes) == {0, 1, 2}
        assert {u for u in coefficients if coefficients[u] != start.coefficients[u]} == {0, 1, 2}
        assert start.ginis[3] > 0
        assert all(ginis[u] == start.ginis[u] and coefficients[u] == start.coefficients[u] for u in (3, 4))

    def test_gini_intermediary_cut_by_a_later_hop_is_asked_again(self, monkeypatch):
        """Node 1 passes at 5 but not at 3, where node 2 cuts the payment: the attempt declines."""
        asked = []

        def uneven(g, x, in_cid, out_cid, requested, before, coefficients):
            asked.append((x, requested))
            if x == 1:
                return requested if requested > 3 else 0
            return min(requested, 3)

        monkeypatch.setattr(rebalancer, "_gini_bound", uneven)
        g = skewed_triangle()
        cfg = config(agreement_mode="gini")
        before = [(c.balance_a, c.balance_b) for c in g.channels.values()]
        assert attempt_rebalance(g, TRIANGLE_HOPS, 5, RunTable(g, cfg)) is None
        assert asked == [(1, 5), (2, 5), (1, 3)]
        assert [(c.balance_a, c.balance_b) for c in g.channels.values()] == before
        # node 1 grants 4 and node 2 cuts to 3, where node 1 still agrees
        monkeypatch.setattr(rebalancer, "_gini_bound", lambda g, x, i, o, requested, *table: min(requested, 5 - x))
        assert attempt_rebalance(g, TRIANGLE_HOPS, 5, RunTable(g, cfg)) == (triangle_cycle(), 3)

    @pytest.mark.parametrize("mode", ["band", "gini"])
    def test_gini_table_equals_a_fresh_fill_after_every_payment(self, monkeypatch, mode):
        """Each payment leaves the table's Ginis and coefficients equal to the balances'; parallel channels,
        with ids out of insertion order, put a node's entries where neither its neighbours nor its hop ids say."""
        base = synthetic(40, 3, 5)
        rng = random.Random(5)
        specs = [(ch.node_a, ch.node_b, ch.capacity, ch.balance_a) for ch in base.channels.values()]
        specs += [(a, b, cap, rng.randint(0, cap)) for a, b, cap, _ in specs[::2]]
        ids = rng.sample(range(len(specs)), len(specs))
        parallel = set(ids[base.num_channels():])
        g = make_graph(specs, ids)
        attempt = rebalancer.attempt_rebalance
        paid = []

        def checked_attempt(g, hops, amount, table):
            executed = attempt(g, hops, amount, table)
            if executed is not None:
                assert (table.ginis, table.coefficients) == gini_table(g)
                paid.append(executed[0].channel_ids)
            return executed

        monkeypatch.setattr(rebalancer, "attempt_rebalance", checked_attempt)
        res = run_simulation(g, config(seed=5, strategy=Strategy.CYCLE5, agreement_mode=mode, max_operations=100))
        assert len(paid) == len(res.operations) > 0
        assert any(parallel.intersection(cids) for cids in paid)

    def test_malformed_hops_rejected_before_any_mutation(self):
        # a figure eight through initiator 0: every rule agrees to 5, but
        # the initiator reappears mid-cycle, which RebalanceCycle rejects
        g = make_graph([(0, 1, 10, 10), (0, 1, 10, 0), (0, 2, 10, 10), (0, 2, 10, 0)])
        hops = ((0, 1, 0), (1, 0, 1), (0, 2, 2), (2, 0, 3))
        totals = totals_of(g)
        assert check_sink_condition(g, 0, 3, totals[0])
        assert desired_amount(g, 0, 0, totals[0]) == 5
        for (_, _, in_cid), (x, _, out_cid) in zip(hops, hops[1:]):
            assert max_agreeable_amount(g, x, in_cid, out_cid, 5, totals[x], **table_of(g, x)) == 5
        before = [(c.balance_a, c.balance_b) for c in g.channels.values()]
        with pytest.raises(ValueError, match="^initiator may appear only at the cycle ends$"):
            attempt_rebalance(g, hops, 5, RunTable(g, config()))
        assert [(c.balance_a, c.balance_b) for c in g.channels.values()] == before


def _unbalance_first_channel(apply):
    def faulty(g, cycle, amount):
        apply(g, cycle, amount)
        g.channels[cycle.hops[0][2]].balance_a += 1

    return faulty


def _shift_first_hop_only(apply):
    def faulty(g, cycle, amount):
        sender, _, cid = cycle.hops[0]
        shift(g, cid, sender, amount)

    return faulty


def _overshoot(apply):
    def faulty(g, cycle, amount):
        apply(g, cycle, amount + 1)

    return faulty


def _credit_without_debit(record):
    def faulty(ledger, g, cycle, amount):
        ledger[cycle.hops[1][0]] += 1

    return faulty


# node 1 can receive 1 on channel 0 before reaching its nu; paying 2 crosses
# it there while channel 1 only reaches it
BAND_IN_OVERSHOOT = [(0, 1, 10, 3), (1, 2, 10, 10), (2, 0, 10, 10), (1, 3, 10, 7)]
# the gini-mode payment on the triangle is 2; paying 3 raises node 2's Gini
GINI_OVERSHOOT = [(0, 1, 10, 10), (1, 2, 10, 4), (2, 0, 10, 8), (1, 3, 10, 0), (0, 3, 10, 0)]


@pytest.mark.parametrize(
    "specs, mode, target, fault, message",
    [
        pytest.param(None, "band", "apply_circular_payment", _unbalance_first_channel,
                     "channel 0 lost capacity conservation", id="capacity"),
        pytest.param(None, "band", "apply_circular_payment", _shift_first_hop_only,
                     "node 0 total funds changed", id="funds"),
        pytest.param(None, "band", "apply_circular_payment", _overshoot,
                     "node 1 crossed nu on its out channel", id="band-out"),
        pytest.param(BAND_IN_OVERSHOOT, "band", "apply_circular_payment", _overshoot,
                     "node 1 crossed nu on its in channel", id="band-in"),
        pytest.param(GINI_OVERSHOOT, "gini", "apply_circular_payment", _overshoot,
                     "node 2 Gini increased", id="gini"),
    ],
)
def test_post_condition_catches_faulty_execution(monkeypatch, specs, mode, target, fault, message):
    """Each check after an executed payment fires on the fault it guards against."""
    g = make_graph(specs) if specs else skewed_triangle()
    monkeypatch.setattr(rebalancer, target, fault(getattr(rebalancer, target)))
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        attempt_rebalance(g, TRIANGLE_HOPS, proposal_of(g), RunTable(g, config(agreement_mode=mode)))


def _decline_at_the_sink(check):
    def faulty(g, u, last_cid, totals):
        return False

    return faulty


def _cap_each_hop_at_4(bound):
    def faulty(g, x, in_cid, out_cid, requested, totals):
        return min(bound(g, x, in_cid, out_cid, requested, totals), 4)

    return faulty


@pytest.mark.parametrize(
    "target, fault, outcome",
    [
        pytest.param("check_sink_condition", _decline_at_the_sink, "declined", id="declined"),
        pytest.param("_band_bound", _cap_each_hop_at_4, "moved 4", id="other-amount"),
    ],
)
def test_kernel_recheck_catches_a_wrong_prediction(monkeypatch, target, fault, outcome):
    """A band run raises when the kernel does not move what the hop-cap table predicted."""
    monkeypatch.setattr(rebalancer, target, fault(getattr(rebalancer, target)))
    message = re.escape(f"hop caps predicted 5 on cycle {TRIANGLE_HOPS}; the kernel {outcome}")
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        run_simulation(skewed_triangle(), config())


def test_kernel_recheck_catches_a_gini_payment_above_the_table(monkeypatch):
    """A gini run raises when the kernel moves more than the hop-cap table allows."""
    write = rebalancer.RunTable._set

    def capped_at_1(self, d, *args):
        write(self, d, *args)
        self.mid[d] = min(self.mid[d], 1)

    monkeypatch.setattr(rebalancer.RunTable, "_set", capped_at_1)
    message = re.escape(f"hop caps bound 1 on cycle {TRIANGLE_HOPS}; the kernel moved 5")
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        run_simulation(skewed_triangle(), config(agreement_mode="gini"))


def test_kernel_recheck_catches_a_stale_table(monkeypatch):
    """A table that no payment refreshes soon predicts an attempt the kernel does not make."""
    refresh = rebalancer.RunTable.refresh
    calls = []

    def fill_only(self, g, cids):
        calls.append(cids)
        if len(calls) == 1:
            refresh(self, g, cids)

    monkeypatch.setattr(rebalancer.RunTable, "refresh", fill_only)
    g = synthetic(60, 3, 9)
    message = r"^hop caps predicted \d+ on cycle .+; the kernel (declined|moved \d+)$"
    with pytest.raises(InvariantViolation, match=message):
        run_simulation(g, config(seed=9, strategy=Strategy.FOAF))


def test_fee_tally_catches_a_ledger_that_loses_zero_sum(monkeypatch):
    """The run's fee tally checks the ledger it built from the operations."""
    monkeypatch.setattr(rebalancer, "record_fees", _credit_without_debit(rebalancer.record_fees))
    with pytest.raises(InvariantViolation, match="^fee ledger lost zero-sum$"):
        run_simulation(skewed_triangle(), config())


class TestRunSimulation:
    def test_balanced_network_terminates_immediately(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])
        res = run_simulation(g, config())
        assert res.operations == []
        assert len(res.samples) == 1

    def test_triangle_reaches_zero_within_three_ops(self):
        g = skewed_triangle()
        res = run_simulation(g, config())
        assert len(res.operations) <= 3
        assert network_imbalance(res.graph) == 0.0

    def test_deterministic_replay(self):
        records = generate_synthetic(60, 3, (10_000, 1_000_000), seed=9)

        def run():
            g = largest_scc(allocate_funds_coinflip(records, seed=9))
            return run_simulation(g, config(seed=9, strategy=Strategy.FOAF))

        a, b = run(), run()
        assert [(op.seq, op.initiator, op.amount, op.cycle.hops) for op in a.operations] == [
            (op.seq, op.initiator, op.amount, op.cycle.hops) for op in b.operations
        ]
        assert [op.imbalance_after for op in a.operations] == [
            op.imbalance_after for op in b.operations
        ]
        assert a.samples == b.samples

    def test_max_operations_caps_run(self):
        records = generate_synthetic(60, 3, (10_000, 1_000_000), seed=9)
        g = largest_scc(allocate_funds_coinflip(records, seed=9))
        res = run_simulation(g, config(seed=9, strategy=Strategy.FOAF, max_operations=5))
        assert len(res.operations) == 5

    def test_eval_hooks_run_on_samples(self):
        g = skewed_triangle()
        calls = []

        def sampler(snapshot):
            calls.append(network_imbalance(snapshot))
            return ("probe", len(calls))

        res = run_simulation(g, config(), sampler)
        assert len(calls) == len(res.samples)
        assert [s.metrics for s in res.samples] == [("probe", i + 1) for i in range(len(calls))]

    def test_fee_ledger_zero_sum_after_run(self):
        records = generate_synthetic(50, 3, (10_000, 1_000_000), seed=3)
        g = largest_scc(allocate_funds_coinflip(records, seed=3))
        res = run_simulation(g, config(seed=3, strategy=Strategy.CYCLE5))
        assert res.ledger.total() == 0
        assert any(res.ledger[op.initiator] < 0 for op in res.operations)

    def test_mpp_splits_amount(self):
        g = make_graph([(0, 1, 1000, 1000), (1, 2, 1000, 1000), (2, 0, 1000, 1000)])
        res = run_simulation(g, config(strategy=Strategy.MPP, mpp_divisor=20))
        assert res.operations[0].amount == 25  # desired 500 split by 20

    @pytest.mark.parametrize(
        "strategy, divisor", [pytest.param(Strategy.CYCLE4, 20, id="cycle4"), pytest.param(Strategy.MPP, 7, id="mpp")]
    )
    def test_operation_amounts_respect_min(self, strategy, divisor):
        records = generate_synthetic(50, 3, (10_000, 1_000_000), seed=4)
        g = largest_scc(allocate_funds_coinflip(records, seed=4))
        res = run_simulation(g, config(seed=4, strategy=strategy, mpp_divisor=divisor, min_amount=500))
        assert res.operations
        assert all(op.amount >= 500 for op in res.operations)

    @pytest.mark.parametrize("mode", ["band", "gini"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_imbalance_equals_the_models_exactly(self, monkeypatch, strategy, mode):
        records = generate_synthetic(60, 3, (10_000, 1_000_000), seed=9)
        g = largest_scc(allocate_funds_coinflip(records, seed=9))
        attempt = rebalancer.attempt_rebalance
        checked = []

        def checked_attempt(g, hops, amount, table):
            executed = attempt(g, hops, amount, table)
            if executed is not None:
                # every node's table entries, not only the cycle's, equal the model's
                assert (table.ginis, table.coefficients) == gini_table(g)
                checked.append(executed)
            return executed

        monkeypatch.setattr(rebalancer, "attempt_rebalance", checked_attempt)
        # mpp/gini runs for thousands of shrinking payments before it stops
        res = run_simulation(g, config(seed=9, strategy=strategy, agreement_mode=mode, max_operations=150))
        assert res.operations
        assert len(checked) == len(res.operations)
        assert res.operations[-1].imbalance_after == network_imbalance(res.graph)
        assert res.samples[-1].imbalance == network_imbalance(res.graph)

    def test_gini_mode_runs_clean(self):
        records = generate_synthetic(30, 2, (10_000, 100_000), seed=6)
        g = largest_scc(allocate_funds_coinflip(records, seed=6))
        res = run_simulation(g, config(seed=6, strategy=Strategy.FOAF, agreement_mode="gini"))
        # _check_executed asserts per op that no intermediate's Gini increased
        assert res.ledger.total() == 0

    def test_gini_run_on_large_capacities_keeps_every_gini(self):
        """At 10^14 sat and more, one satoshi moves a coefficient by less than the float Gini
        resolves, so an intermediary can pass its test at the amount it grants and fail it at
        the amount a later hop settles on; the kernel asks it again there."""
        records = generate_synthetic(120, 4, (10**14, 10**17), seed=1)
        g = largest_scc(allocate_funds_coinflip(records, seed=1))
        res = run_simulation(g, config(seed=1, agreement_mode="gini", max_operations=150))
        assert len(res.operations) == 150

    def test_core_runs_without_numpy(self):
        """model, cycles, rebalancer and ingestion import and run with numpy blocked."""
        script = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import lnbalance
from lnbalance import cycles, ingestion, model, rebalancer
records = ingestion.generate_synthetic(40, 3, (10_000, 1_000_000), seed=2)
g = ingestion.largest_scc(ingestion.allocate_funds_coinflip(records, seed=2))
res = rebalancer.run_simulation(g, rebalancer.SimulationConfig(seed=2, strategy=cycles.Strategy.CYCLE4))
print(lnbalance.__version__, len(res.operations), model.network_imbalance(res.graph))
"""
        src = str(Path(rebalancer.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        records = generate_synthetic(40, 3, (10_000, 1_000_000), seed=2)
        res = run_simulation(largest_scc(allocate_funds_coinflip(records, seed=2)), config(seed=2))
        assert res.operations
        assert proc.stdout.split() == [lnbalance.__version__, str(len(res.operations)),
                                       repr(network_imbalance(res.graph))]


# runs part-way (`warmup` operations) on small seeded graphs, whose visits a test then replays
visits = given(
    n_nodes=st.integers(min_value=10, max_value=30),
    degree=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    strategy=st.sampled_from(list(Strategy)),
    require_sink_condition=st.booleans(),
    min_amount=st.sampled_from([1, 5000]),
    mpp_divisor=st.integers(min_value=1, max_value=30),
    warmup=st.sampled_from([0, 5, 40]),
)


class TestRunTable:
    """Runs skip the cycles whose hop-cap entries in the run's table hold a 0; a band run's table also predicts
    the payment."""

    @settings(max_examples=60, deadline=None)
    @visits
    def test_predictions_match_the_kernel(self, n_nodes, degree, seed, warmup, **knobs):
        """Every cycle of a visit, in shuffled order: executes or not, and the amount, as the kernel says."""
        g = synthetic(n_nodes, degree, seed)
        assume(g.num_nodes() >= 2)
        # a cap keeps foaf visits to a few hundred kernel calls
        cfg = config(seed=seed, cycle_cap=200, **knobs)
        # part-way through a run, so that payments have moved balances
        run_simulation(g, dataclasses.replace(cfg, max_operations=warmup))
        table = RunTable(g, cfg)
        totals = table.totals
        divisor = cfg.mpp_divisor if cfg.strategy.splits_amount else 1
        rng = random.Random(seed)

        def predict(cycles, tries, first, amount):
            """As the run predicts a visit: the first hop's `mid` caps the proposal, then the scan."""
            capped = min(amount, table.mid[first]) if amount >= cfg.min_amount else 0
            found = cycles.first_reaching(tries, table.mid, table.last) if capped else None
            return None if found is None else (found[0], min(capped, found[1]))

        keys = [(u, cid) for u in g.nodes() for cid in candidate_channels(g, u, totals[u])]
        for u, cid in rng.sample(keys, min(len(keys), 4)):
            cycles = enumerate_cycles(g, u, cid, cfg.strategy, cfg.cycle_cap)
            tries = list(range(len(cycles)))
            rng.shuffle(tries)
            amount = desired_amount(g, u, cid, totals[u]) // divisor
            first = g.hop_id(u, cid)
            executing = []
            copies = None
            for i in tries:
                # a declined attempt leaves its copy as it was, so only a payment needs a new one
                if copies is None:
                    copies = copy.deepcopy((g, table))
                executed = attempt_rebalance(copies[0], cycles[i], amount, copies[1])
                expected = None if executed is None else (i, executed[1])
                assert predict(cycles, [i], first, amount) == expected
                if expected is not None:
                    executing.append(expected)
                    copies = None
            assert predict(cycles, tries, first, amount) == (executing[0] if executing else None)

    @pytest.mark.parametrize("agreement_mode", ["band", "gini"])
    @pytest.mark.parametrize("min_amount", [1, 5000])
    @pytest.mark.parametrize("require_sink_condition", [True, False])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_table_equals_a_fresh_fill_after_every_payment(self, monkeypatch, strategy, require_sink_condition,
                                                            min_amount, agreement_mode):
        """After the fill and after each payment, every entry equals a fresh table's and the rules'.

        The second graph adds parallel channels, with ids out of insertion order, which put a node's
        coefficient entries where neither its neighbours nor its hop ids say."""
        fill = rebalancer.RunTable
        refreshed = []
        cfg = config(seed=9, strategy=strategy, require_sink_condition=require_sink_condition,
                     min_amount=min_amount, agreement_mode=agreement_mode, max_operations=150)

        class Checked(fill):
            __slots__ = ()

            def refresh(self, g, cids):
                super().refresh(g, cids)
                fresh = fill(g, cfg)
                assert (self.mid, self.last) == (fresh.mid, fresh.last)
                assert self.totals == fresh.totals == totals_of(g)
                assert self.candidates == fresh.candidates
                assert self.candidates == {u: candidate_channels(g, u, self.totals[u]) for u in g.nodes()}
                assert (self.ginis, self.coefficients) == (fresh.ginis, fresh.coefficients) == gini_table(g)
                # in node order, the order the run's `mean_gini` sums in
                assert list(self.ginis) == g.nodes()
                assert all(entry == 0 or entry >= min_amount for entry in self.mid + self.last)
                refreshed.append(list(cids))

        monkeypatch.setattr(rebalancer, "RunTable", Checked)
        base = synthetic(40, 3, 5)
        rng = random.Random(5)
        specs = [(ch.node_a, ch.node_b, ch.capacity, ch.balance_a) for ch in base.channels.values()]
        specs += [(a, b, cap, rng.randint(0, cap)) for a, b, cap, _ in specs[::2]]
        ids = rng.sample(range(len(specs)), len(specs))
        parallel = set(ids[base.num_channels():])
        for g in (synthetic(60, 3, 9), make_graph(specs, ids)):
            refreshed.clear()
            res = run_simulation(g, cfg)
            assert res.operations
            # the fill, then each payment's channels
            assert refreshed == [list(g.channels)] + [list(op.cycle.channel_ids) for op in res.operations]
        assert any(parallel.intersection(op.cycle.channel_ids) for op in res.operations)

    @settings(max_examples=60, deadline=None)
    @visits
    def test_gini_table_skips_only_declines(self, n_nodes, degree, seed, warmup, **knobs):
        """Every cycle of a visit, in shuffled order: a 0 in a gini run's table is a decline, and a payment
        moves at most what the table allows; the run's scan reaches the first cycle that executes."""
        g = synthetic(n_nodes, degree, seed)
        assume(g.num_nodes() >= 2)
        cfg = config(seed=seed, cycle_cap=200, agreement_mode="gini", **knobs)
        run_simulation(g, dataclasses.replace(cfg, max_operations=warmup))
        table = RunTable(g, cfg)
        totals = table.totals
        divisor = cfg.mpp_divisor if cfg.strategy.splits_amount else 1
        rng = random.Random(seed)
        keys = [(u, cid) for u in g.nodes() for cid in candidate_channels(g, u, totals[u])]
        for u, cid in rng.sample(keys, min(len(keys), 4)):
            cycles = enumerate_cycles(g, u, cid, cfg.strategy, cfg.cycle_cap)
            tries = list(range(len(cycles)))
            rng.shuffle(tries)
            amount = desired_amount(g, u, cid, totals[u]) // divisor
            capped = min(amount, table.mid[g.hop_id(u, cid)]) if amount >= cfg.min_amount else 0
            executes = set()
            copies = None
            for i in tries:
                if copies is None:
                    copies = copy.deepcopy((g, table))
                executed = attempt_rebalance(copies[0], cycles[i], amount, copies[1])
                found = cycles.first_reaching([i], table.mid, table.last) if capped else None
                if found is None:
                    assert executed is None
                elif executed is not None:
                    assert executed[1] <= min(capped, found[1])
                    executes.add(i)
                    copies = None
            # as the run scans: from where the last decline left off, up to the first payment
            pending = iter(tries)
            reached = None
            while capped and reached is None:
                found = cycles.first_reaching(pending, table.mid, table.last)
                if found is None:
                    break
                if found[0] in executes:
                    reached = found[0]
            assert reached == next((i for i in tries if i in executes), None)


class TestSimulationConfig:
    def test_strategy_accepts_string(self):
        cfg = SimulationConfig(seed=1, strategy="foaf")
        assert cfg.strategy is Strategy.FOAF

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, strategy="foaf", cycle_cap=0)
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, strategy="foaf", mpp_divisor=0)
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, strategy="foaf", min_amount=0)
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, strategy="foaf", agreement_mode="nope")


# every size to 300, and each side of every power of two up to 2^13, where
# the number of bits a draw takes changes
SHUFFLE_SIZES = sorted(
    set(range(301)) | {2**k + d for k in range(1, 14) for d in (-1, 0, 1)} | {1_750, 5_000}
)


class TestShuffle:
    """`rebalancer._shuffle` is `random.Random.shuffle` with its draw inline: same permutation, same stream."""

    @staticmethod
    def advanced(seed):
        # an odd number of 32-bit draws, so no shuffle starts at the
        # beginning of a pair of words
        rng = random.Random(seed)
        for _ in range(2 * seed + 1):
            rng.getrandbits(32)
        return rng

    def test_matches_the_stdlib_shuffle(self):
        for seed in range(30):
            for n in SHUFFLE_SIZES:
                expected, got = list(range(n)), list(range(n))
                stdlib, inline = self.advanced(seed), self.advanced(seed)
                stdlib.shuffle(expected)
                rebalancer._shuffle(inline, got)
                assert got == expected, (seed, n)
                assert inline.getstate() == stdlib.getstate(), (seed, n)

    def test_shuffles_items_of_any_type(self):
        for seed in range(30):
            for n in (0, 1, 2, 3, 17, 64, 65, 300):
                items = [(str(i), None, float(i)) for i in range(n)]
                expected, got = items[:], items[:]
                stdlib, inline = self.advanced(seed), self.advanced(seed)
                stdlib.shuffle(expected)
                rebalancer._shuffle(inline, got)
                assert got == expected, (seed, n)
                assert inline.getstate() == stdlib.getstate(), (seed, n)


def reference_simulation(g, config):
    """Deliberately naive `run_simulation`: same RNG calls, nothing cached.

    A fresh `RunTable` (totals, node Gini values), the proposal and the
    network imbalance are made at every attempt, with no skip of a visit whose proposal is
    below `min_amount`, and cycles are enumerated afresh at every visit.
    Fees are recorded right after each executed payment.  Returns
    (seq, initiator, cycle, amount, imbalance_after) per executed operation,
    and the fee ledger.
    """
    rng = random.Random(config.seed)
    ledger = FeeLedger()
    divisor = config.mpp_divisor if config.strategy.splits_amount else 1
    ops = []
    while True:
        order = g.nodes()
        rng.shuffle(order)
        executed_this_sweep = False
        for u in order:
            if len(ops) >= config.max_operations:
                return ops, ledger
            if node_gini(g, u) <= config.convergence_epsilon:
                continue
            candidates = candidate_channels(g, u, node_totals(g, u))
            if not candidates:
                continue
            cid = rng.choice(candidates)
            cycles = enumerate_cycles(g, u, cid, config.strategy, config.cycle_cap)
            if not cycles:
                continue
            indices = list(range(len(cycles)))
            rng.shuffle(indices)
            for i in indices:
                table = RunTable(g, config)
                amount = desired_amount(g, u, cid, table.totals[u]) // divisor
                executed = attempt_rebalance(g, cycles[i], amount, table)
                if executed is not None:
                    cycle, amount = executed
                    record_fees(ledger, g, cycle, amount)
                    ops.append((len(ops) + 1, u, cycle, amount, network_imbalance(g)))
                    executed_this_sweep = True
                    break
        if not executed_this_sweep:
            return ops, ledger


class TestReferenceSimulation:
    @settings(max_examples=60, deadline=None)
    @given(
        n_nodes=st.integers(min_value=10, max_value=30),
        degree=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        strategy=st.sampled_from(list(Strategy)),
        agreement_mode=st.sampled_from(["band", "gini"]),
        min_amount=st.sampled_from([1, 5000]),
        require_sink_condition=st.booleans(),
        mpp_divisor=st.integers(min_value=1, max_value=30),
        max_operations=st.sampled_from([0, 3, 20, 150]),
    )
    def test_matches_run_simulation(self, n_nodes, degree, seed, **knobs):
        records = generate_synthetic(n_nodes, degree, (10_000, 1_000_000), seed)

        def graph():
            return largest_scc(allocate_funds_coinflip(records, seed))

        assume(graph().num_nodes() >= 2)
        cfg = config(seed=seed, **knobs)
        result = run_simulation(graph(), cfg)
        got = [(op.seq, op.initiator, op.cycle, op.amount, op.imbalance_after) for op in result.operations]
        expected, ledger = reference_simulation(graph(), cfg)
        assert got == expected
        # the run's one tally after its end equals recording at every payment
        nodes = result.graph.nodes()
        assert [result.ledger[u] for u in nodes] == [ledger[u] for u in nodes]
