import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnbalance.model import (
    Channel,
    InsufficientBalanceError,
    NetworkGraph,
    RebalanceCycle,
    apply_circular_payment,
    gini,
    network_imbalance,
    node_gini,
    node_totals,
)


def make_graph(specs):
    """specs: (node_a, node_b, capacity, balance_a) per channel."""
    channels = [
        Channel(cid=i, node_a=a, node_b=b, capacity=cap, balance_a=bal, balance_b=cap - bal)
        for i, (a, b, cap, bal) in enumerate(specs)
    ]
    return NetworkGraph(channels)


def gini_double_sum(values):
    """Direct O(n^2) evaluation of sum|vi-vj| / (2 * sum_i sum_j vj)."""
    n = len(values)
    denom = 2 * n * sum(values)
    if denom == 0:
        return 0.0
    num = sum(abs(vi - vj) for vi in values for vj in values)
    return num / denom


def triangle_balanced():
    # a-b, b-c, c-a, all capacity 10, balances 5/5
    return make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])


def triangle_cycle():
    return RebalanceCycle(0, ((0, 1, 0), (1, 2, 1), (2, 0, 2)))


class TestChannel:
    def test_rejects_self_channel(self):
        with pytest.raises(ValueError):
            Channel(cid=0, node_a=1, node_b=1, capacity=10, balance_a=5, balance_b=5)

    def test_rejects_balance_mismatch(self):
        with pytest.raises(ValueError):
            Channel(cid=0, node_a=0, node_b=1, capacity=10, balance_a=4, balance_b=5)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Channel(cid=0, node_a=0, node_b=1, capacity=0, balance_a=0, balance_b=0)


class TestBalanceCoefficient:
    """The channel balance coefficient zeta, as `Channel.zeta` computes it."""

    def test_direct_ratio(self):
        g = make_graph([(0, 1, 10, 8)])
        assert g.channel(0).zeta(0) == 0.8

    def test_zero_balance(self):
        g = make_graph([(0, 1, 10, 10)])
        assert g.channel(0).zeta(1) == 0.0

    def test_unknown_channel(self):
        g = make_graph([(0, 1, 10, 8)])
        with pytest.raises(KeyError):
            g.channel(5)

    def test_non_endpoint(self):
        g = make_graph([(0, 1, 10, 8), (1, 2, 10, 4)])
        with pytest.raises(ValueError):
            g.channel(0).zeta(2)

    @given(st.integers(min_value=1, max_value=2**32), st.data())
    def test_sides_complement_to_one(self, capacity, data):
        balance = data.draw(st.integers(min_value=0, max_value=capacity))
        g = make_graph([(0, 1, capacity, balance)])
        za = g.channel(0).zeta(0)
        zb = g.channel(0).zeta(1)
        assert za + zb == 1.0


class TestNodeBalanceCoefficient:
    """The node coefficient nu = tau / kappa, as the exact `node_totals`."""

    def test_single_channel(self):
        g = make_graph([(0, 1, 10, 8)])
        assert node_totals(g, 0) == (8, 10)

    def test_two_channels_half(self):
        g = make_graph([(0, 1, 10, 10), (0, 2, 10, 0)])
        assert node_totals(g, 0) == (10, 20)

    def test_uneven_capacities(self):
        g = make_graph([(0, 1, 100, 100), (0, 2, 10, 0)])
        assert node_totals(g, 0) == (100, 110)

    def test_totals_are_exact(self):
        g = make_graph([(0, 1, 100, 37), (0, 2, 11, 4)])
        assert node_totals(g, 0) == (41, 111)


class TestGini:
    def test_equal_values(self):
        assert gini([0.5, 0.5, 0.5]) == 0.0

    def test_two_values(self):
        assert gini([0.0, 1.0]) == 0.5

    def test_zero_one_vector(self):
        # m ones out of n gives (n - m) / n
        assert gini([1.0, 1.0, 0.0, 0.0]) == 0.5

    def test_single_value(self):
        assert gini([0.9]) == 0.0

    def test_all_zero_convention(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            gini([])

    @settings(max_examples=300)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    def test_matches_double_sum_oracle(self, values):
        assert abs(gini(values) - gini_double_sum(values)) < 1e-12

    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    def test_range(self, values):
        assert 0.0 <= gini(values) <= 1.0


class TestNodeGini:
    def test_node_vector(self):
        g = make_graph([(0, 1, 10, 10), (0, 2, 10, 0)])
        assert node_gini(g, 0) == 0.5

    def test_single_channel_node(self):
        g = make_graph([(0, 1, 10, 9)])
        assert node_gini(g, 0) == 0.0


class TestNetworkImbalance:
    def test_balanced_triangle(self):
        assert network_imbalance(triangle_balanced()) == 0.0

    def test_two_node_single_channel(self):
        g = make_graph([(0, 1, 10, 10)])
        assert network_imbalance(g) == 0.0

    def test_oriented_triangle(self):
        # channel funds follow the cycle 0->1->2->0: each node sees [1, 0]
        g = make_graph([(0, 1, 10, 10), (1, 2, 10, 10), (2, 0, 10, 10)])
        assert network_imbalance(g) == 0.5

    def test_empty_graph_is_error(self):
        g = NetworkGraph([])
        with pytest.raises(ValueError):
            network_imbalance(g)


class TestRebalanceCycle:
    def test_requires_two_hops(self):
        with pytest.raises(ValueError):
            RebalanceCycle(0, ((0, 1, 0),))

    def test_requires_closure(self):
        with pytest.raises(ValueError):
            RebalanceCycle(0, ((0, 1, 0), (1, 2, 1)))

    def test_rejects_repeated_node(self):
        with pytest.raises(ValueError):
            RebalanceCycle(0, ((0, 1, 0), (1, 2, 1), (2, 1, 2), (1, 0, 3)))

    def test_rejects_disconnected_walk(self):
        with pytest.raises(ValueError):
            RebalanceCycle(0, ((0, 1, 0), (2, 0, 1)))


class TestApplyCircularPayment:
    def test_triangle_example(self):
        g = triangle_balanced()
        apply_circular_payment(g, triangle_cycle(), 3)
        # every sender side dropped to 2, every receiver side rose to 8
        assert (g.channels[0].balance_a, g.channels[0].balance_b) == (2, 8)
        assert (g.channels[1].balance_a, g.channels[1].balance_b) == (2, 8)
        assert (g.channels[2].balance_a, g.channels[2].balance_b) == (2, 8)
        for u in g.nodes():
            assert node_totals(g, u)[0] == 10

    def test_zero_amount_is_error(self):
        g = triangle_balanced()
        with pytest.raises(ValueError):
            apply_circular_payment(g, triangle_cycle(), 0)

    def test_insufficient_balance_is_atomic(self):
        g = make_graph([(0, 1, 10, 2), (1, 2, 10, 5), (2, 0, 10, 5)])
        before = [(ch.balance_a, ch.balance_b) for ch in g.channels.values()]
        with pytest.raises(InsufficientBalanceError):
            apply_circular_payment(g, triangle_cycle(), 3)
        assert [(ch.balance_a, ch.balance_b) for ch in g.channels.values()] == before

    def test_capacity_conserved(self):
        g = triangle_balanced()
        apply_circular_payment(g, triangle_cycle(), 5)
        for ch in g.channels.values():
            assert ch.balance_a + ch.balance_b == ch.capacity

    @given(st.integers(min_value=1, max_value=5))
    def test_reverse_restores_state(self, amount):
        g = triangle_balanced()
        before = [(ch.balance_a, ch.balance_b) for ch in g.channels.values()]
        apply_circular_payment(g, triangle_cycle(), amount)
        # the same triangle walked the other way round
        apply_circular_payment(g, RebalanceCycle(0, ((0, 2, 2), (2, 1, 1), (1, 0, 0))), amount)
        assert [(ch.balance_a, ch.balance_b) for ch in g.channels.values()] == before

    def test_wrong_receiver_rejected(self):
        g = triangle_balanced()
        bad = RebalanceCycle(0, ((0, 2, 0), (2, 1, 1), (1, 0, 2)))
        with pytest.raises(ValueError):
            apply_circular_payment(g, bad, 1)


class TestGraphBasics:
    def test_duplicate_channel_id_rejected(self):
        with pytest.raises(ValueError):
            NetworkGraph(
                [
                    Channel(0, 0, 1, 10, 5, 5),
                    Channel(0, 1, 2, 10, 5, 5),
                ]
            )

    def test_parallel_channels_kept_distinct(self):
        g = make_graph([(0, 1, 10, 10), (0, 1, 20, 0)])
        assert g.num_channels() == 2
        assert [cid for cid, _ in g.incident(0)] == [0, 1]
        assert node_totals(g, 0) == (10, 30)

    def test_nodes_sorted(self):
        g = make_graph([(5, 3, 10, 5), (3, 1, 10, 5)])
        assert g.nodes() == [1, 3, 5]
