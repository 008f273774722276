import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnbalance.cycles import Strategy, enumerate_cycles
from lnbalance.evaluation import (
    RouteCache,
    _sample_ordered_pairs,
    cdf_points,
    cheapest_path,
    evaluate_network,
    gini_distribution,
    ks_distance,
)
from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic
from lnbalance.model import Channel, NetworkGraph, apply_circular_payment, network_imbalance


def make_graph(specs):
    """specs: (node_a, node_b, capacity, balance_a[, base_fee])."""
    channels = []
    for i, spec in enumerate(specs):
        a, b, cap, bal = spec[:4]
        base = spec[4] if len(spec) > 4 else 1000
        channels.append(Channel(i, a, b, cap, bal, cap - bal, base, 1))
    return NetworkGraph(channels)


def brute_force_cheapest_fee(g, source, target):
    """Minimum total base fee over all simple paths, by exhaustive enumeration."""
    nodes = g.nodes()
    best = None
    for k in range(1, len(nodes)):
        for mids in itertools.permutations([n for n in nodes if n not in (source, target)], k - 1):
            seq = (source,) + mids + (target,)
            fees = 0
            ok = True
            for a, b in zip(seq, seq[1:]):
                hop_fees = [
                    g.channels[cid].base_fee_msat for cid, nb in g.incident(a) if nb == b
                ]
                if not hop_fees:
                    ok = False
                    break
                fees += min(hop_fees)
            if ok and (best is None or fees < best):
                best = fees
    return best


class TestCheapestPath:
    def test_cheaper_route_wins_even_if_blocked(self):
        # direct channel fee 3000 vs two-hop route fee 1000+1000, but empty
        g = make_graph([(0, 1, 10, 5, 3000), (0, 2, 10, 0, 1000), (2, 1, 10, 0, 1000)])
        res = cheapest_path(g, 0, 1)
        assert res.total_base_fee == 2000
        assert [cid for cid, _ in res.path] == [1, 2]
        assert res.bottleneck == 0

    def test_direct_channel_bottleneck(self):
        g = make_graph([(0, 1, 10, 7)])
        res = cheapest_path(g, 0, 1)
        assert res.bottleneck == 7
        assert res.total_base_fee == 1000

    def test_three_hop_bottleneck_is_min(self):
        g = make_graph([(0, 1, 20, 10), (1, 2, 20, 3), (2, 3, 20, 8)])
        res = cheapest_path(g, 0, 3)
        assert res.bottleneck == 3

    def test_no_path(self):
        g = make_graph([(0, 1, 10, 5), (2, 3, 10, 5)])
        res = cheapest_path(g, 0, 3)
        assert res.path == [] and res.bottleneck == 0

    def test_tie_broken_by_fewer_hops(self):
        # 0-1 direct (fee 2000) vs 0-2-1 (fee 1000+1000)
        g = make_graph([(0, 1, 10, 5, 2000), (0, 2, 10, 5, 1000), (2, 1, 10, 5, 1000)])
        res = cheapest_path(g, 0, 1)
        assert res.total_base_fee == 2000
        assert len(res.path) == 1

    def test_tie_broken_lexicographically(self):
        # two 2-hop routes with equal fees: via node 2 or node 3; node 2 wins
        g = make_graph([(0, 3, 10, 5), (3, 1, 10, 5), (0, 2, 10, 5), (2, 1, 10, 5)])
        res = cheapest_path(g, 0, 1)
        assert [sender for _, sender in res.path] == [0, 2]

    def test_parallel_channel_prefers_cheaper(self):
        g = make_graph([(0, 1, 10, 5, 900), (0, 1, 10, 9, 500)])
        res = cheapest_path(g, 0, 1)
        assert res.total_base_fee == 500
        assert res.bottleneck == 9

    def test_same_node_rejected(self):
        g = make_graph([(0, 1, 10, 5)])
        with pytest.raises(ValueError):
            cheapest_path(g, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_fee_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        specs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    cap = rng.randint(2, 50)
                    specs.append((i, j, cap, rng.randint(0, cap), rng.choice([0, 500, 1000, 2500])))
        if not specs:
            specs = [(0, 1, 10, 5, 1000)]
        g = make_graph(specs)
        nodes = g.nodes()
        s, t = nodes[0], nodes[-1]
        if s == t:
            return
        expected = brute_force_cheapest_fee(g, s, t)
        got = cheapest_path(g, s, t)
        if expected is None:
            assert got.path == [] and got.bottleneck == 0
        else:
            assert got.total_base_fee == expected


class TestSuccessRate:
    def test_fully_balanced_is_one(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])
        assert evaluate_network(g, 1).success_rate == 1.0

    def test_one_sided_two_node_graph(self):
        g = make_graph([(0, 1, 10, 10)])
        assert evaluate_network(g, 1).success_rate == 0.5  # only the funded direction works

    def test_respects_amount(self):
        g = make_graph([(0, 1, 10, 7)])
        assert evaluate_network(g, 7).success_rate == 0.5
        assert evaluate_network(g, 8).success_rate == 0.0

    def test_monotone_in_amount(self):
        records = generate_synthetic(25, 2, (100, 10_000), seed=3)
        g = allocate_funds_coinflip(records, seed=3)
        rates = [evaluate_network(g, m).success_rate for m in (1, 10, 100, 1000)]
        assert rates == sorted(rates, reverse=True)

    def test_internal_consistency_with_bottlenecks(self):
        records = generate_synthetic(20, 2, (100, 10_000), seed=5)
        g = allocate_funds_coinflip(records, seed=5)
        values = RouteCache(g).bottlenecks(g).tolist()
        assert evaluate_network(g, 1).success_rate == 1 - sum(1 for v in values if v == 0) / len(values)


class TestMedianPaymentSize:
    def test_all_blocked_is_zero(self):
        g = make_graph([(0, 1, 10, 0), (1, 2, 10, 0)])
        assert evaluate_network(g).median_payment_sat == 0

    def test_two_node_lower_middle(self):
        g = make_graph([(0, 1, 10, 10)])
        assert evaluate_network(g).median_payment_sat == 0  # bottlenecks {10, 0} take the lower middle

    def test_balanced_triangle(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])
        assert evaluate_network(g).median_payment_sat == 5


class TestKsDistance:
    def test_identical_samples(self):
        assert ks_distance([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([0, 0, 0], [1, 1, 1]) == 1.0

    def test_half_shift(self):
        assert ks_distance([0.0, 1.0], [0.5, 1.0]) == 0.5

    def test_empty_sample_is_error(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
    )
    def test_symmetry_and_range(self, a, b):
        d = ks_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ks_distance(b, a)
        assert ks_distance(a, a) == 0.0

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
    )
    def test_triangle_inequality(self, a, b, c):
        assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-12


class TestGiniDistribution:
    def test_balanced_graph_all_zero(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])
        assert gini_distribution(g) == [0.0, 0.0, 0.0]

    def test_coinflip_closed_form(self):
        records = generate_synthetic(30, 2, (100, 10_000), seed=11)
        g = allocate_funds_coinflip(records, seed=11)
        values = gini_distribution(g)
        for u, got in zip(g.nodes(), values):
            entries = g.incident(u)
            zeros = sum(1 for cid, _ in entries if g.channels[cid].balance(u) == 0)
            # all-zero vectors take the zero-denominator convention, not (n-m)/n
            expected = 0.0 if zeros == len(entries) else zeros / len(entries)
            assert got == pytest.approx(expected, abs=1e-12)


class TestEvaluateNetwork:
    def test_report_fields_consistent(self):
        records = generate_synthetic(20, 2, (100, 10_000), seed=2)
        g = allocate_funds_coinflip(records, seed=2)
        report = evaluate_network(g)
        values = sorted(RouteCache(g).bottlenecks(g).tolist())
        assert report.success_rate == sum(1 for v in values if v >= 1) / len(values)
        assert report.median_payment_sat == values[(len(values) - 1) // 2]
        assert report.gini_values == gini_distribution(g)
        assert report.payment_size_cdf[-1][1] == 1.0
        assert report.sampled_pairs is None

    def test_cdf_points_monotone(self):
        points = cdf_points([3, 1, 1, 7, 3])
        assert points == [(1, 0.4), (3, 0.8), (7, 1.0)]

    def test_sampled_evaluation_deterministic(self):
        records = generate_synthetic(30, 2, (100, 10_000), seed=4)
        g = allocate_funds_coinflip(records, seed=4)
        a = evaluate_network(g, sample_pairs=50, seed=9)
        b = evaluate_network(g, sample_pairs=50, seed=9)
        assert a.success_rate == b.success_rate
        assert a.sampled_pairs == 50


def reference_report(g, pairs, amount, sampled):
    """Report built pair by pair from `cheapest_path`, with plain Python statistics."""
    values = sorted(cheapest_path(g, s, t).bottleneck for s, t in pairs)
    return {
        "success_rate": sum(1 for v in values if v >= amount) / len(values),
        "median_payment_sat": values[(len(values) - 1) // 2],
        "payment_size_cdf": [
            (v, i / len(values))
            for i, v in enumerate(values, start=1)
            if i == len(values) or values[i] != v
        ],
        "gini_values": gini_distribution(g),
        "network_imbalance": network_imbalance(g),
        "amount_sat": amount,
        "sampled_pairs": sampled,
    }


class TestRouteCache:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_pairwise_reference_across_payments(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        specs = []
        for i in range(n):
            for j in range(i + 1, n):
                for _ in range(rng.choice([0, 1, 1, 2])):
                    cap = rng.randint(2, 50)
                    specs.append((i, j, cap, rng.randint(0, cap), rng.choice([0, 500, 1000, 2500])))
        if not specs:
            specs = [(0, 1, 10, 5, 0)]
        g = make_graph(specs)
        nodes = g.nodes()
        if len(nodes) < 2:
            return
        routes = RouteCache(g)
        all_pairs = [(s, t) for s in nodes for t in nodes if t != s]
        for _ in range(6):
            amount = rng.randint(1, 20)
            full = evaluate_network(g, amount, routes=routes)
            assert vars(full) == reference_report(g, all_pairs, amount, None)
            k, sample_seed = rng.randint(1, len(all_pairs)), rng.randint(0, 99)
            sampled = evaluate_network(g, amount, sample_pairs=k, seed=sample_seed, routes=routes)
            pairs = _sample_ordered_pairs(nodes, k, sample_seed)
            assert vars(sampled) == reference_report(g, pairs, amount, len(pairs))
            # one random executable circular payment moves balances, not routes
            u = rng.choice(nodes)
            cid = rng.choice(g.incident(u))[0]
            cycles = enumerate_cycles(g, u, cid, Strategy.CYCLE5, 50)
            if not cycles:
                continue
            cycle = rng.choice(cycles)
            room = min(g.channels[c].balance(sender) for sender, _, c in cycle.hops)
            if room >= 1:
                apply_circular_payment(g, cycle, rng.randint(1, room))

    def test_other_graph_is_rejected(self):
        specs = [(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)]
        g = make_graph(specs)
        routes = RouteCache(g)
        evaluate_network(g, routes=routes)
        # an equal graph is still another graph
        with pytest.raises(ValueError):
            evaluate_network(make_graph(specs), routes=routes)
        with pytest.raises(ValueError):
            routes.bottlenecks(make_graph([(0, 1, 10, 5)]))
