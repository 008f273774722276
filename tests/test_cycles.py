import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphs import make_graph
from lnbalance.cycles import Strategy, enumerate_cycles
from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc


def triangle():
    return make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])


def clique(n):
    return make_graph([(i, j, 10, 5) for i in range(n) for j in range(i + 1, n)])


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


def foaf_node_set(g, u):
    """`u`, its neighbors, and their neighbors (distance <= 2, undirected)."""
    neighbors = {nb for _, nb in g.incident(u)}
    out = {u} | neighbors
    for v in neighbors:
        out.update(nb for _, nb in g.incident(v))
    return out


ORACLE_CAPS = (1, 2, 3, 7, 10_000)


def ordered_oracle(g, initiator, cid, strategy, cap):
    """The exhaustive cycles sorted shortest first, then by (receiver, channel) per hop, cut at `cap`."""
    if strategy in (Strategy.FOAF, Strategy.MPP):
        allowed = foaf_node_set(g, initiator)
        found = {c for c in brute_force_cycles(g, initiator, cid, 6) if all(s in allowed for s, _, _ in c)}
    else:
        found = brute_force_cycles(g, initiator, cid, 4 if strategy is Strategy.CYCLE4 else 5)
    ordered = sorted(found, key=lambda c: (len(c), tuple((recv, ch) for _, recv, ch in c)))
    return ordered[:cap]


def assert_matches_ordered_oracle(g, initiator, cid, strategies):
    for strategy in strategies:
        for cap in ORACLE_CAPS:
            got = enumerate_cycles(g, initiator, cid, strategy, cap)
            assert list(got) == ordered_oracle(g, initiator, cid, strategy, cap), (strategy, cap)


class TestTriangleAndCliques:
    def test_triangle_single_cycle(self):
        cycles = enumerate_cycles(triangle(), 0, 0, Strategy.CYCLE4, cap=100)
        assert set(cycles) == {((0, 1, 0), (1, 2, 1), (2, 0, 2))}

    def test_four_clique_counts(self):
        g = clique(4)
        # through the directed hop 0->1: two triangles plus two quadrilaterals
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=100)
        assert len(cycles) == 4
        assert [len(c) for c in cycles] == [3, 3, 4, 4]

    def test_cap_truncates(self):
        g = clique(4)
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=1)
        assert len(cycles) == 1
        assert len(cycles[0]) == 3  # shortest first

    def test_path_graph_has_no_cycles(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 3, 10, 5)])
        assert list(enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=10)) == []

    def test_parallel_channels_make_two_hop_cycles(self):
        g = make_graph([(0, 1, 10, 5), (0, 1, 10, 5)])
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=10)
        assert set(cycles) == {((0, 1, 0), (1, 0, 1))}

    def test_unknown_channel(self):
        with pytest.raises(KeyError):
            enumerate_cycles(triangle(), 0, 99, Strategy.CYCLE4, cap=10)

    def test_initiator_not_on_channel(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5), (2, 3, 10, 5)])
        with pytest.raises(ValueError, match="^node 0 is not an endpoint of channel 3$"):
            enumerate_cycles(g, 0, 3, Strategy.CYCLE4, cap=10)

    def test_first_hop_fixed(self):
        g = clique(4)
        for c in enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=100):
            assert c[0] == (0, 1, 0)
            assert c[-1][1] == 0

    def test_order_is_neighbor_then_channel_at_each_hop(self):
        # channels 1 and 2 are parallel: node sequences repeat, and the
        # channel taken at hop 2 outranks the node reached at hop 3
        edges = [(0, 1), (1, 2), (1, 2), (2, 3), (2, 4), (3, 0), (4, 0)]
        g = make_graph([(a, b, 10, 5) for a, b in edges])
        cycles = enumerate_cycles(g, 0, 0, Strategy.CYCLE4, cap=100)
        assert [(tuple(s for s, _, _ in c), tuple(ch for _, _, ch in c)) for c in cycles] == [
            ((0, 1, 2, 3), (0, 1, 3, 5)),
            ((0, 1, 2, 4), (0, 1, 4, 6)),
            ((0, 1, 2, 3), (0, 2, 3, 5)),
            ((0, 1, 2, 4), (0, 2, 4, 6)),
        ]

    def test_closer_order_with_parallel_channels(self):
        # channels 0, 2 and 5 are parallel between the initiator and its
        # first-hop peer 1, and the first hop takes the middle one; 1 and 4
        # are parallel on the inner hop 1-2
        edges = [(0, 1), (1, 2), (0, 1), (2, 3), (1, 2), (0, 1), (3, 0), (2, 0), (1, 3)]
        g = make_graph([(a, b, 10, 5) for a, b in edges])
        expected = [
            ((0, 1, 2), (1, 0, 0)),
            ((0, 1, 2), (1, 0, 5)),
            ((0, 1, 2), (1, 2, 1), (2, 0, 7)),
            ((0, 1, 2), (1, 2, 4), (2, 0, 7)),
            ((0, 1, 2), (1, 3, 8), (3, 0, 6)),
            ((0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 6)),
            ((0, 1, 2), (1, 2, 4), (2, 3, 3), (3, 0, 6)),
            ((0, 1, 2), (1, 3, 8), (3, 2, 3), (2, 0, 7)),
        ]
        for strategy in Strategy:
            assert list(enumerate_cycles(g, 0, 2, strategy, cap=100)) == expected, strategy
            for cap in range(1, len(expected) + 1):
                assert list(enumerate_cycles(g, 0, 2, strategy, cap=cap)) == expected[:cap], (strategy, cap)

    def test_deterministic_order(self):
        g = clique(5)
        a = enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=50)
        b = enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=50)
        assert list(a) == list(b)
        lengths = [len(c) for c in a]
        assert lengths == sorted(lengths)


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
    return make_graph([(a, b, 10, 5) for a, b in edges])


class TestBruteForceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_cycle4_cycle5_match_exhaustive_dfs(self, seed):
        g = random_graph(seed)
        rng = random.Random(seed + 1)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        assert_matches_ordered_oracle(g, u, cid, (Strategy.CYCLE4, Strategy.CYCLE5))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_foaf_mpp_match_exhaustive_dfs_in_foaf_set(self, seed):
        g = random_graph(seed)
        rng = random.Random(seed + 5)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_b
        assert_matches_ordered_oracle(g, u, cid, (Strategy.FOAF, Strategy.MPP))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_cap_at_every_length_boundary(self, seed):
        # a cap equal to the number of cycles up to some length, or one
        # either side of it, is where a search that stops early goes wrong
        g = random_graph(seed)
        rng = random.Random(seed + 6)
        cid = rng.randrange(g.num_channels())
        u = rng.choice((g.channels[cid].node_a, g.channels[cid].node_b))
        for strategy in Strategy:
            full = ordered_oracle(g, u, cid, strategy, 10_000)
            lengths = [len(c) for c in full]
            boundaries = {i + 1 for i, n in enumerate(lengths) if i + 1 == len(lengths) or lengths[i + 1] != n}
            for k in sorted(boundaries):
                for cap in (k - 1, k, k + 1):
                    if cap >= 1:
                        assert list(enumerate_cycles(g, u, cid, strategy, cap)) == full[:cap], (strategy, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_subset_chains(self, seed):
        g = random_graph(seed, max_nodes=7)
        rng = random.Random(seed + 2)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        c4 = set(enumerate_cycles(g, u, cid, Strategy.CYCLE4, cap=10_000))
        c5 = set(enumerate_cycles(g, u, cid, Strategy.CYCLE5, cap=10_000))
        foaf = set(enumerate_cycles(g, u, cid, Strategy.FOAF, cap=10_000))
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
        assert list(foaf) == list(mpp)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_foaf_cycles_stay_in_foaf_set(self, seed):
        g = random_graph(seed)
        rng = random.Random(seed + 4)
        cid = rng.randrange(g.num_channels())
        u = g.channels[cid].node_a
        allowed = foaf_node_set(g, u)
        for c in enumerate_cycles(g, u, cid, Strategy.FOAF, cap=10_000):
            assert {s for s, _, _ in c} <= allowed
            assert len(c) <= 6

    def test_last_steps_skip_nodes_on_the_path(self):
        # a wheel: hub 0 on every spoke, rim 1-2-3-4-5-1, a chord 2-5 and a
        # parallel rim channel 3-4.  Every rim node neighbours the hub, so the
        # walk's last steps from a rim node go to any rim neighbour but the
        # peer 1, and some of those are already on the path: after 1, 2, 3,
        # the last steps of 3 lead to 2 (on the path) and to 4 over either
        # parallel channel, and after 1, 4, 3 to 2 and to 4 (on the path).
        # Each node's last steps are listed once per call, so the same list
        # is filtered under both paths.
        rim = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 5), (3, 4)]
        g = make_graph([(0, n, 10, 5) for n in range(1, 6)] + [(a, b, 10, 5) for a, b in rim])
        around = {nb for _, nb in g.incident(0)}

        def skipped(path, hops_left):
            # last steps on the path from the simple paths 0, 1, ... that
            # end `hops_left` hops before the initiator
            if hops_left == 2:
                return sum(nb in path for _, nb in g.incident(path[-1]) if nb in around and nb != 1)
            return sum(
                skipped(path + [nb], hops_left - 1) for _, nb in g.incident(path[-1]) if nb not in path
            )

        for strategy, max_len in ((Strategy.CYCLE5, 5), (Strategy.FOAF, 6)):
            assert skipped([0, 1], max_len - 1) > 0, strategy
            assert_matches_ordered_oracle(g, 0, 0, (strategy,))


class TestCycleRows:
    """`enumerate_cycles` returns a read-only sequence that acts as the list of its hop tuples."""

    def cycles_and_list(self):
        # lengths 3, 4 and 5, so the cycles span three rows
        g = clique(5)
        return enumerate_cycles(g, 0, 0, Strategy.CYCLE5, cap=100), ordered_oracle(g, 0, 0, Strategy.CYCLE5, 100)

    def test_len_indexing_and_iteration(self):
        cycles, expected = self.cycles_and_list()
        assert sorted({len(c) for c in expected}) == [3, 4, 5]
        assert len(cycles) == len(expected)
        assert [cycles[i] for i in range(len(cycles))] == expected
        assert [cycles[i] for i in range(-len(cycles), 0)] == expected
        assert list(cycles) == expected
        assert all(type(c) is tuple and all(type(h) is tuple for h in c) for c in cycles)

    @staticmethod
    def seven_clique():
        # a seven-clique with a parallel first channel has foaf cycles of 2 to 6
        # hops, so the hop tuples come from rows of every stride, 1 to 5
        return make_graph([(0, 1, 10, 5)] + [(i, j, 10, 5) for i in range(7) for j in range(i + 1, 7)])

    def test_foaf_rows_of_every_stride(self):
        g = self.seven_clique()
        assert {len(c) for c in enumerate_cycles(g, 0, 0, Strategy.FOAF, cap=10_000)} == {2, 3, 4, 5, 6}
        assert_matches_ordered_oracle(g, 0, 0, (Strategy.FOAF, Strategy.MPP))

    def test_first_reaching_finds_the_row_of_each_end_of_every_row(self):
        g = self.seven_clique()
        cycles = enumerate_cycles(g, 0, 0, Strategy.FOAF, cap=10_000)
        size = 2 * g.num_channels()
        # no entry is 0, so every cycle's cap is the least entry it reads
        mid = [1 + (7 * d) % 23 for d in range(size)]
        last = [1 + (11 * d) % 29 for d in range(size)]
        lengths = [len(c) for c in cycles]
        assert sorted(set(lengths)) == [2, 3, 4, 5, 6]
        # the first and the last index of each row, one row per cycle length
        ends = {i for n in set(lengths) for i in (lengths.index(n), len(lengths) - 1 - lengths[::-1].index(n))}
        for i in sorted(ends):
            ids = [g.hop_id(sender, c) for sender, _, c in cycles[i][1:]]
            cap = min([mid[d] for d in ids[:-1]] + [last[ids[-1]]])
            assert cycles.first_reaching([i], mid, last) == (i, cap), i
        for i in (-1, -len(cycles), len(cycles), len(cycles) + 7):
            with pytest.raises(IndexError):
                cycles.first_reaching([i], mid, last)
        empty = enumerate_cycles(make_graph([(0, 1, 10, 5), (1, 2, 10, 5)]), 0, 0, Strategy.FOAF, cap=10)
        with pytest.raises(IndexError):
            empty.first_reaching([0], mid, last)

    def test_index_past_either_end_raises(self):
        cycles, _ = self.cycles_and_list()
        for i in (len(cycles), len(cycles) + 7, -len(cycles) - 1):
            with pytest.raises(IndexError):
                cycles[i]
        empty = enumerate_cycles(make_graph([(0, 1, 10, 5), (1, 2, 10, 5)]), 0, 0, Strategy.CYCLE4, cap=10)
        assert len(empty) == 0 and not empty and list(empty) == []
        with pytest.raises(IndexError):
            empty[0]

    def test_equality(self):
        # the sequences compare through their lists
        cycles, expected = self.cycles_and_list()
        assert list(cycles) == expected
        assert list(cycles) == list(enumerate_cycles(clique(5), 0, 0, Strategy.CYCLE5, cap=100))
        assert list(cycles) != expected[:-1]
        assert list(cycles) != expected[::-1]
        assert list(cycles) != list(enumerate_cycles(clique(5), 0, 0, Strategy.CYCLE5, cap=3))
        assert list(enumerate_cycles(make_graph([(0, 1, 10, 5)]), 0, 0, Strategy.FOAF, cap=10)) == []

    def test_random_draws_match_the_list(self):
        # random.choice indexes by a draw on the length, and shuffling the
        # indices permutes as shuffling the list does: the run loop's stream
        cycles, expected = self.cycles_and_list()
        for seed in range(20):
            assert random.Random(seed).choice(cycles) == random.Random(seed).choice(expected)
            order = list(range(len(cycles)))
            random.Random(seed).shuffle(order)
            shuffled = expected[:]
            random.Random(seed).shuffle(shuffled)
            assert [cycles[i] for i in order] == shuffled

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_first_reaching_matches_the_hop_tuples(self, seed):
        # the entries a cycle reads, from its hop tuple: mid of the middle hops, last of the last
        rng = random.Random(seed)
        g = random_graph(seed)
        cid = rng.randrange(g.num_channels())
        u = rng.choice((g.channels[cid].node_a, g.channels[cid].node_b))
        cycles = enumerate_cycles(g, u, cid, rng.choice(list(Strategy)), 10_000)
        size = 2 * g.num_channels()
        # entries are 0, which stops a cycle, or 1..9, each draw with its own share of zeros
        zeros = rng.random()
        mid = [0 if rng.random() < zeros else rng.randint(1, 9) for _ in range(size)]
        last = [0 if rng.random() < zeros else rng.randint(1, 9) for _ in range(size)]
        tries = list(range(len(cycles)))
        rng.shuffle(tries)
        del tries[rng.randint(0, len(tries)):]

        def entries(hops):
            ids = [g.hop_id(sender, c) for sender, _, c in hops[1:]]
            return [mid[d] for d in ids[:-1]] + [last[ids[-1]]]

        expected = next(((i, min(entries(cycles[i]))) for i in tries if all(entries(cycles[i]))), None)
        assert cycles.first_reaching(tries, mid, last) == expected

    def test_channel_ids_past_int32(self):
        # the arrays hold hop ids, which number the graph's channels from 0
        specs = [(a, b, 10, 5) for a in range(5) for b in range(a + 1, 5)]
        g = make_graph(specs, ids=[2**40 + 3 * i for i in range(len(specs))])
        for strategy in Strategy:
            assert list(enumerate_cycles(g, 0, 2**40, strategy, cap=100)) == ordered_oracle(g, 0, 2**40, strategy, 100)

    @pytest.mark.parametrize("channels", [32_768, 32_769])
    def test_hop_ids_either_side_of_two_bytes(self, channels):
        # a five-clique takes the last channel ids, so its hop ids reach
        # 65,535 (rows of 2-byte ids) or pass it (rows of 4-byte ids); the
        # padding path before it does not touch the clique
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        pad = channels - len(edges)
        g = make_graph([(10 + i, 11 + i, 10, 5) for i in range(pad)] + [(a, b, 10, 5) for a, b in edges])
        assert len(g.hop_table()) == 2 * channels
        assert_matches_ordered_oracle(g, 0, pad, Strategy)
        assert_matches_ordered_oracle(g, 4, channels - 1, Strategy)

    def test_cached_cycle_costs_under_16_bytes(self):
        # kept as flat 2-byte hop ids, not as a tuple of hop tuples (about 140 B)
        g = largest_scc(allocate_funds_coinflip(generate_synthetic(100, 3, (10_000, 1_000_000), 5), 5))
        keys = [(u, cid) for u in g.nodes()[::7] for cid, _ in g.incident(u)]
        for u, cid in keys:
            # the graph's lazy views are built once per graph, not per cycle
            enumerate_cycles(g, u, cid, Strategy.FOAF, 5000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [enumerate_cycles(g, u, cid, Strategy.FOAF, 5000) for u, cid in keys]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        count = sum(len(cycles) for cycles in kept)
        assert count > 10_000
        assert grown / count < 16
