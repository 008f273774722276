import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnbalance.cycles import Strategy, enumerate_cycles, foaf_node_set
from lnbalance.model import Channel, NetworkGraph


def graph_from_edges(edges):
    channels = [
        Channel(cid=i, node_a=a, node_b=b, capacity=10, balance_a=5, balance_b=5)
        for i, (a, b) in enumerate(edges)
    ]
    return NetworkGraph(channels)


def triangle():
    return graph_from_edges([(0, 1), (1, 2), (2, 0)])


def clique(n):
    return graph_from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_force_cycles(g, initiator, cid, max_len):
    """Exhaustive DFS over all simple cycles through the directed first hop."""
    first = g.channel(cid)
    v = first.peer(initiator)
    found = []

    def extend(current, hops):
        if len(hops) >= 2 and current == initiator:
            found.append(tuple(hops))
            return
        if len(hops) >= max_len:
            return
        for nxt_cid, nxt in g.incident(current):
            if nxt_cid in {h[2] for h in hops}:
                continue
            if nxt != initiator and nxt in {h[0] for h in hops}:
                continue
            if nxt == initiator and len(hops) + 1 < 2:
                continue
            extend(nxt, hops + [(current, nxt, nxt_cid)])

    extend(v, [(initiator, v, cid)])
    return {c for c in found}


def hop_set(cycles):
    return {c.hops for c in cycles}


class TestTriangleAndCliques:
    def test_triangle_single_cycle(self):
        cycles = enumerate_cycles(triangle(), 0, 0, Strategy.CYCLE4, cap=100)
        assert hop_set(cycles) == {((0, 1, 0), (1, 2, 1), (2, 0, 2))}

    def test_four_clique_counts(self):
        g = clique(4)
        # through the directed hop 0->1: two triangles plus two quadrilaterals
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=100)
        assert len(cycles) == 4
        assert [len(c.hops) for c in cycles] == [3, 3, 4, 4]

    def test_cap_truncates(self):
        g = clique(4)
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=1)
        assert len(cycles) == 1
        assert len(cycles[0].hops) == 3  # shortest first

    def test_path_graph_has_no_cycles(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        assert enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=10) == []

    def test_parallel_channels_make_two_hop_cycles(self):
        g = graph_from_edges([(0, 1), (0, 1)])
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=10)
        assert hop_set(cycles) == {((0, 1, 0), (1, 0, 1))}

    def test_unknown_channel(self):
        with pytest.raises(KeyError):
            enumerate_cycles(triangle(), 0, 99, Strategy.CYCLE4, cap=10)

    def test_first_hop_fixed(self):
        g = clique(4)
        for c in enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=100):
            assert c.hops[0] == (0, 1, 0)
            assert c.hops[-1][1] == 0

    def test_deterministic_order(self):
        g = clique(5)
        a = enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=50)
        b = enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=50)
        assert a == b
        lengths = [len(c.hops) for c in a]
        assert lengths == sorted(lengths)


class TestFoafNodeSet:
    def test_star_center_reaches_all(self):
        g = graph_from_edges([(0, i) for i in range(1, 6)])
        assert foaf_node_set(g, 0) == set(range(6))

    def test_path_distance_two(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        assert foaf_node_set(g, 0) == {0, 1, 2}

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            foaf_node_set(triangle(), 42)


def random_graph(seed, max_nodes=8):
    rng = random.Random(seed)
    n = rng.randint(3, max_nodes)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                edges.append((i, j))
    # occasional parallel channel
    if edges and rng.random() < 0.4:
        edges.append(edges[rng.randrange(len(edges))])
    if not edges:
        edges = [(0, 1)]
    return graph_from_edges(edges)


class TestBruteForceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_cycle4_cycle5_match_exhaustive_dfs(self, seed):
        g = random_graph(seed)
        rng = random.Random(seed + 1)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        for strategy, max_len in ((Strategy.CYCLE4, 4), (Strategy.CYCLE5, 5)):
            got = hop_set(enumerate_cycles(g, u, cid, strategy, cap=10_000))
            assert got == brute_force_cycles(g, u, cid, max_len)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_subset_chains(self, seed):
        g = random_graph(seed, max_nodes=7)
        rng = random.Random(seed + 2)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        c4 = hop_set(enumerate_cycles(g, u, cid, Strategy.CYCLE4, cap=10_000))
        c5 = hop_set(enumerate_cycles(g, u, cid, Strategy.CYCLE5, cap=10_000))
        foaf = hop_set(enumerate_cycles(g, u, cid, Strategy.FOAF, cap=10_000))
        unbounded = brute_force_cycles(g, u, cid, max_len=g.num_nodes())
        assert c4 <= c5 <= unbounded
        assert c4 <= foaf

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_mpp_shares_foaf_cycles(self, seed):
        g = random_graph(seed, max_nodes=7)
        rng = random.Random(seed + 3)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        foaf = enumerate_cycles(g, u, cid, Strategy.FOAF, cap=10_000)
        mpp = enumerate_cycles(g, u, cid, Strategy.MPP, cap=10_000)
        assert foaf == mpp

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_foaf_cycles_stay_in_foaf_set(self, seed):
        g = random_graph(seed)
        rng = random.Random(seed + 4)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        allowed = foaf_node_set(g, u)
        for c in enumerate_cycles(g, u, cid, Strategy.FOAF, cap=10_000):
            assert set(c.nodes) <= allowed
            assert len(c.hops) <= 6
