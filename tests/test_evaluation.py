import dataclasses
import heapq
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import make_graph
from lnbalance.cycles import Strategy, enumerate_cycles
from lnbalance.evaluation import RouteCache, cdf_points, evaluate_network, ks_distance
from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic
from lnbalance.model import (
    MAX_CAPACITY_SAT,
    RebalanceCycle,
    apply_circular_payment,
    gini_distribution,
)


def oracle_routes(g):
    """The route of every ordered pair, by exhaustive search.

    Each hop takes the lowest-fee channel between its two nodes, ties to
    the lower id.  Of all simple node sequences from s to t, the route is
    the one with the least (total fee, hops, node sequence, channel
    sequence).  Returns {(s, t): (node sequence, channel sequence)}, with
    no entry for a pair that has no path.
    """
    hop = {}
    for ch in g.channels.values():
        for a, b in ((ch.node_a, ch.node_b), (ch.node_b, ch.node_a)):
            hop[a, b] = min(hop.get((a, b), (ch.base_fee_msat, ch.cid)), (ch.base_fee_msat, ch.cid))
    nodes = g.nodes()
    best = {}
    for s in nodes:
        others = [u for u in nodes if u != s]
        for k in range(1, len(nodes)):
            for rest in itertools.permutations(others, k):
                seq = (s,) + rest
                steps = list(zip(seq, seq[1:]))
                if not all(step in hop for step in steps):
                    continue
                fees, cids = zip(*(hop[step] for step in steps))
                key = (sum(fees), k, seq, cids)
                pair = (s, seq[-1])
                if pair not in best or key < best[pair]:
                    best[pair] = key
    return {pair: key[2:] for pair, key in best.items()}


def dijkstra_tree(g, index, slot, source):
    """(targets, predecessors, balance slots) of each hop level, by Dijkstra.

    The per-source build that `RouteCache` replaced, kept as its reference.
    Entries are (fee, hops, node sequence, last channel).  Comparing the
    node sequence breaks fee/hop ties and keeps Dijkstra greedy; a node
    is settled once, with its final path, so entries equal in the first
    three differ in a parallel channel.  A settled node's predecessor
    settled before it, so its level is at most one past the last.
    """
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
    return [np.array(level, dtype=np.int32).T for level in levels]


def reference_bottlenecks(g, sources):
    """Bottleneck rows of `sources`, read down the trees of `dijkstra_tree`."""
    index = {u: i for i, u in enumerate(g.nodes())}
    slot = {cid: 2 * k for k, cid in enumerate(g.channels)}
    balances = np.array([b for ch in g.channels.values() for b in (ch.balance_a, ch.balance_b)], dtype=np.int64)
    rows = np.zeros((len(sources), len(index)), dtype=np.int64)
    for row, source in zip(rows, sources):
        row[index[source]] = MAX_CAPACITY_SAT
        for targets, preds, slots in dijkstra_tree(g, index, slot, source):
            row[targets] = np.minimum(row[preds], balances[slots])
    return rows


def route_bottleneck(g, s, t):
    return RouteCache(g, [s]).bottlenecks()[0].tolist()[g.nodes().index(t)]


def pair_bottlenecks(g):
    """The bottleneck of every ordered pair, row by row, each source's own entry dropped."""
    nodes = g.nodes()
    rows = RouteCache(g).bottlenecks().tolist()
    return [v for s, row in zip(nodes, rows) for t, v in zip(nodes, row) if t != s]


class TestCheapestPath:
    """Route choice as the bottleneck shows it: the routes compared differ in balance."""

    def test_cheaper_route_wins_even_if_blocked(self):
        # direct channel fee 3000 vs two-hop route fee 1000+1000, but empty
        g = make_graph([(0, 1, 10, 5, 3000), (0, 2, 10, 0, 1000), (2, 1, 10, 0, 1000)])
        assert route_bottleneck(g, 0, 1) == 0

    def test_direct_channel_bottleneck(self):
        g = make_graph([(0, 1, 10, 7)])
        assert route_bottleneck(g, 0, 1) == 7

    def test_three_hop_bottleneck_is_min(self):
        g = make_graph([(0, 1, 20, 10), (1, 2, 20, 3), (2, 3, 20, 8)])
        assert route_bottleneck(g, 0, 3) == 3

    def test_no_path(self):
        g = make_graph([(0, 1, 10, 5), (2, 3, 10, 5)])
        assert route_bottleneck(g, 0, 3) == 0

    def test_tie_broken_by_fewer_hops(self):
        # 0-2 direct (fee 2000, balance 5) vs 0-1-2 (fee 1000+1000, balance 9), which
        # comes first by node sequence
        g = make_graph([(0, 2, 10, 5, 2000), (0, 1, 10, 9, 1000), (1, 2, 10, 9, 1000)])
        assert route_bottleneck(g, 0, 2) == 5

    def test_tie_broken_lexicographically(self):
        # two 2-hop routes with equal fees: via node 3 (balance 9) or node 2 (balance 5); node 2 wins
        g = make_graph([(0, 3, 10, 9), (3, 1, 10, 9), (0, 2, 10, 5), (2, 1, 10, 5)])
        assert route_bottleneck(g, 0, 1) == 5

    def test_parallel_channel_prefers_cheaper(self):
        g = make_graph([(0, 1, 10, 5, 900), (0, 1, 10, 9, 500)])
        assert route_bottleneck(g, 0, 1) == 9

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
        # every simple path from s to t with its total fee and bottleneck (one channel per pair)
        channel = {}
        for ch in g.channels.values():
            channel[ch.node_a, ch.node_b] = channel[ch.node_b, ch.node_a] = ch
        paths = []
        for k in range(1, len(nodes)):
            for mids in itertools.permutations([u for u in nodes if u not in (s, t)], k - 1):
                steps = list(zip((s,) + mids, mids + (t,)))
                if all(step in channel for step in steps):
                    fee = sum(channel[step].base_fee_msat for step in steps)
                    paths.append((fee, min(channel[a, b].balance(a) for a, b in steps)))
        got = route_bottleneck(g, s, t)
        if not paths:
            assert got == 0
        else:
            least = min(fee for fee, _ in paths)
            assert got in {bottleneck for fee, bottleneck in paths if fee == least}


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

    def test_amount_at_the_int64_edge(self):
        # compared as floats, 2**63 - 1 and 2**63 would be equal
        g = make_graph([(0, 1, 2**63 - 1, 2**63 - 1)])
        assert evaluate_network(g, 2**63 - 1).success_rate == 0.5
        assert evaluate_network(g, 2**63).success_rate == 0.0

    def test_monotone_in_amount(self):
        records = generate_synthetic(25, 2, (100, 10_000), seed=3)
        g = allocate_funds_coinflip(records, seed=3)
        rates = [evaluate_network(g, m).success_rate for m in (1, 10, 100, 1000)]
        assert rates == sorted(rates, reverse=True)

    def test_internal_consistency_with_bottlenecks(self):
        records = generate_synthetic(20, 2, (100, 10_000), seed=5)
        g = allocate_funds_coinflip(records, seed=5)
        values = pair_bottlenecks(g)
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
        values = sorted(pair_bottlenecks(g))
        assert report.success_rate == sum(1 for v in values if v >= 1) / len(values)
        assert report.median_payment_sat == values[(len(values) - 1) // 2]
        assert report.payment_size_cdf[-1][1] == 1.0
        assert report.sampled_pairs is None

    def test_report_without_cdf_keeps_rate_and_median(self):
        records = generate_synthetic(20, 2, (100, 10_000), seed=2)
        g = allocate_funds_coinflip(records, seed=2)
        for kwargs in ({}, {"amount": 500}, {"sample_pairs": 40, "seed": 1}):
            full = evaluate_network(g, **kwargs)
            assert evaluate_network(g, **kwargs, cdf=False) == dataclasses.replace(full, payment_size_cdf=None)

    def test_cdf_points_monotone(self):
        points = cdf_points([1, 1, 3, 3, 7])
        assert points == [(1, 0.4), (3, 0.8), (7, 1.0)]

    def test_sampled_evaluation_deterministic(self):
        records = generate_synthetic(30, 2, (100, 10_000), seed=4)
        g = allocate_funds_coinflip(records, seed=4)
        a = evaluate_network(g, sample_pairs=50, seed=9)
        b = evaluate_network(g, sample_pairs=50, seed=9)
        assert a == b
        # every pair of ceil(50 / 29) = 2 sources
        assert a.sampled_pairs == 58
        # with no seed given, the sources are those of seed 0
        seeded = evaluate_network(g, sample_pairs=50, seed=0)
        for _ in range(5):
            assert evaluate_network(g, sample_pairs=50) == seeded

    def test_sampled_evaluation_builds_one_tree_per_drawn_source(self):
        records = generate_synthetic(30, 2, (100, 10_000), seed=4)
        g = allocate_funds_coinflip(records, seed=4)
        n = g.num_nodes()
        for k in (1, n - 1, n, 5 * (n - 1) + 1, n * (n - 1)):
            drawn = random.Random(3).sample(g.nodes(), -(-k // (n - 1)))
            routes = RouteCache(g, drawn)
            report = evaluate_network(g, sample_pairs=k, seed=3, routes=routes)
            assert report == evaluate_network(g, sample_pairs=k, seed=3)
            assert report.sampled_pairs == len(drawn) * (n - 1)
            # every drawn source reaches every other node, and no other source is built
            assert sum(level.shape[1] for level in routes._levels) == len(drawn) * (n - 1)

    def test_sample_of_all_sources_is_the_full_evaluation(self):
        records = generate_synthetic(30, 2, (100, 10_000), seed=4)
        g = allocate_funds_coinflip(records, seed=4)
        n = g.num_nodes()
        full = evaluate_network(g, 50)
        # (n - 1)^2 + 1 is the least N that needs all n sources
        for k in ((n - 1) ** 2 + 1, n * (n - 1), n * (n - 1) + 10**6):
            sampled = evaluate_network(g, 50, sample_pairs=k, seed=1)
            # a sample of every source has no sampling error
            assert vars(sampled) == {**vars(full), "sampled_pairs": n * (n - 1), "success_rate_se": 0.0}


def reference_report(g, routes, pairs, amount, sampled):
    """Report built pair by pair from `oracle_routes`, with plain Python statistics.

    A sampled report of k >= 2 sources takes the standard error of the mean
    per-source success rate under sampling without replacement, from the
    count of targets that carry `amount` per source.
    """
    bottleneck = {
        pair: min(g.channels[cid].balance(sender) for sender, cid in zip(*routes[pair])) if pair in routes else 0
        for pair in pairs
    }
    values = sorted(bottleneck.values())
    counts = Counter(s for (s, _), v in bottleneck.items() if v >= amount)
    sources = {s for s, _ in pairs}
    se = None
    if sampled is not None and len(sources) > 1:
        n, k = g.num_nodes(), len(sources)
        rates = [Fraction(counts[s], n - 1) for s in sources]
        mean = sum(rates) / k
        variance = sum((r - mean) ** 2 for r in rates) / (k - 1)
        se = math.sqrt(variance * (n - k) / (n * k))
    return {
        "success_rate": sum(1 for v in values if v >= amount) / len(values),
        "median_payment_sat": values[(len(values) - 1) // 2],
        "payment_size_cdf": [
            (v, i / len(values))
            for i, v in enumerate(values, start=1)
            if i == len(values) or values[i] != v
        ],
        "amount_sat": amount,
        "sampled_pairs": sampled,
        "success_rate_se": se,
    }


def random_payment(g, rng):
    """Make one random executable circular payment, if the draw finds one; returns its amount or 0."""
    u = rng.choice(g.nodes())
    cid = rng.choice(g.incident(u))[0]
    cycles = enumerate_cycles(g, u, cid, Strategy.CYCLE5, 50)
    if not cycles:
        return 0
    hops = rng.choice(cycles)
    room = min(g.channels[c].balance(sender) for sender, _, c in hops)
    if room < 1:
        return 0
    amount = rng.randint(1, room)
    apply_circular_payment(g, RebalanceCycle(u, hops), amount)
    return amount


def fee_graph(n_nodes, attach_degree, seed):
    """A `generate_synthetic` topology with ties, parallel channels, gapped ids and an unreachable part.

    Fees come from {0, 1, 500, 1000, 2500}, so equal-fee paths abound; a
    fifth of the channels get a parallel twin; ids are a gapped sample
    inserted in shuffled order; and five more nodes form a ring of their own.
    """
    rng = random.Random(seed)
    ends = [(int(r.node_a[1:]), int(r.node_b[1:])) for r in generate_synthetic(n_nodes, attach_degree, (1, 2), seed)]
    ends += [pair for pair in ends if rng.random() < 0.2]
    ends += [(n_nodes + i, n_nodes + (i + 1) % 5) for i in range(5)]
    rng.shuffle(ends)
    specs = []
    for a, b in ends:
        cap = rng.randint(2, 50)
        specs.append((a, b, cap, rng.randint(0, cap), rng.choice([0, 1, 500, 1000, 2500])))
    return make_graph(specs, rng.sample(range(3 * len(specs)), len(specs)))


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
        rng.shuffle(specs)  # insertion order in no relation to node ids
        # ids with gaps, inserted in no relation to their order, as largest_scc leaves them
        g = make_graph(specs, rng.sample(range(3 * len(specs)), len(specs)))
        nodes = g.nodes()
        if len(nodes) < 2:
            return
        routes = RouteCache(g)
        oracle = oracle_routes(g)
        all_pairs = [(s, t) for s in nodes for t in nodes if t != s]
        for _ in range(6):
            amount = rng.randint(1, 20)
            full = evaluate_network(g, amount, routes=routes)
            assert vars(full) == reference_report(g, oracle, all_pairs, amount, None)
            k, sample_seed = rng.randint(1, len(all_pairs)), rng.randint(0, 99)
            sampled = evaluate_network(g, amount, sample_pairs=k, seed=sample_seed)
            drawn = random.Random(sample_seed).sample(nodes, -(-k // (len(nodes) - 1)))
            pairs = [(s, t) for s, t in all_pairs if s in drawn]
            assert vars(sampled) == reference_report(g, oracle, pairs, amount, len(pairs))
            # one random executable circular payment moves balances, not routes
            random_payment(g, rng)

    @pytest.mark.parametrize("n_nodes, attach_degree, seed", [(60, 2, 1), (150, 3, 2), (300, 3, 3)])
    def test_matches_dijkstra_reference(self, n_nodes, attach_degree, seed):
        # at 300 nodes, 2,160 directed channels leave room for 7 sources in
        # a block, so the cache of all 305 sources builds in 44 blocks
        g = fee_graph(n_nodes, attach_degree, seed)
        rng = random.Random(seed)
        sampled = rng.sample(g.nodes(), 20)
        caches = [RouteCache(g, sampled), RouteCache(g), RouteCache(g, sampled[::-1])]
        for rounds in range(3):
            if rounds:  # trees built before payments stay valid after them
                assert sum(random_payment(g, rng) for _ in range(10)) > 0
            for routes in caches:
                assert np.array_equal(routes.bottlenecks(), reference_bottlenecks(g, routes.sources))

    def test_key_bound(self):
        # three nodes: (n - 1) * n * fee + n stays below 2**62 up to this fee
        top = (2**62 - 4) // 6
        # 0 -> 2 goes direct (fee top, 1 hop), not through 1 (fee top, 2 hops)
        specs = [(0, 1, 10, 4, top), (1, 2, 10, 7, 0), (0, 2, 10, 9, top)]
        g = make_graph(specs)
        assert np.array_equal(RouteCache(g).bottlenecks(), reference_bottlenecks(g, g.nodes()))
        assert route_bottleneck(g, 0, 2) == 9
        with pytest.raises(ValueError, match=r"below 2\*\*62"):
            RouteCache(make_graph(specs[:2] + [(0, 2, 10, 9, top + 1)]))

    def test_other_graph_is_rejected(self):
        specs = [(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)]
        g = make_graph(specs)
        routes = RouteCache(g)
        evaluate_network(g, routes=routes)
        # an equal graph is still another graph
        with pytest.raises(ValueError):
            evaluate_network(make_graph(specs), routes=routes)
        # a cache of all sources serves full calls alone, one of drawn sources sampled calls alone
        with pytest.raises(ValueError):
            evaluate_network(g, sample_pairs=2, seed=1, routes=routes)
        drawn = RouteCache(g, random.Random(1).sample(g.nodes(), 1))
        evaluate_network(g, sample_pairs=2, seed=1, routes=drawn)
        with pytest.raises(ValueError):
            evaluate_network(g, routes=drawn)
        with pytest.raises(KeyError):
            RouteCache(g, [99])
