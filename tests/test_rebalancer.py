import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lnbalance.cycles import Strategy, enumerate_cycles
from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc
from lnbalance.model import (
    Channel,
    NetworkGraph,
    RebalanceCycle,
    network_imbalance,
    node_gini,
    node_totals,
)
from lnbalance.rebalancer import (
    FeeLedger,
    SimulationConfig,
    attempt_rebalance,
    candidate_channels,
    check_sink_condition,
    desired_amount,
    max_agreeable_amount,
    record_fees,
    run_simulation,
)


def make_graph(specs):
    """specs: (node_a, node_b, capacity, balance_a[, base_fee, fee_rate])."""
    channels = []
    for i, spec in enumerate(specs):
        a, b, cap, bal = spec[:4]
        base, rate = (spec[4], spec[5]) if len(spec) > 4 else (1000, 1)
        channels.append(Channel(i, a, b, cap, bal, cap - bal, base, rate))
    return NetworkGraph(channels)


def skewed_triangle():
    """Funds oriented 0->1->2->0; one rebalance of 5 evens everything."""
    return make_graph([(0, 1, 10, 10), (1, 2, 10, 10), (2, 0, 10, 10)])


def triangle_cycle():
    return RebalanceCycle(0, ((0, 1, 0), (1, 2, 1), (2, 0, 2)))


def totals_of(g):
    return {u: node_totals(g, u) for u in g.nodes()}


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

    def test_mpp_divisor(self):
        g = make_graph([(0, 1, 1000, 800), (0, 2, 1000, 200)])
        assert desired_amount(g, 0, 0, node_totals(g, 0), divisor=20) == 15

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
        assert max_agreeable_amount(g, 0, in_cid=1, out_cid=0, requested=10, totals=node_totals(g, 0)) == 3

    def test_band_declines_when_out_below_nu(self):
        g = make_graph([(0, 1, 10, 2), (0, 2, 10, 8)])
        assert max_agreeable_amount(g, 0, in_cid=1, out_cid=0, requested=5, totals=node_totals(g, 0)) == 0

    def test_band_small_request_granted(self):
        g = make_graph([(0, 1, 10, 10), (0, 2, 10, 0)])
        assert max_agreeable_amount(g, 0, in_cid=1, out_cid=0, requested=1, totals=node_totals(g, 0)) == 1

    def test_same_channel_rejected(self):
        g = make_graph([(0, 1, 10, 5), (0, 2, 10, 5)])
        with pytest.raises(ValueError):
            max_agreeable_amount(g, 0, in_cid=0, out_cid=0, requested=1, totals=node_totals(g, 0))

    def test_gini_mode_never_increases_gini(self):
        g = make_graph([(0, 1, 10, 8), (0, 2, 10, 2), (0, 3, 50, 25)])
        before = node_gini(g, 0)
        granted = max_agreeable_amount(
            g, 0, in_cid=1, out_cid=0, requested=10, totals=node_totals(g, 0), mode="gini"
        )
        assert granted > 0
        g.channels[0].shift(0, granted)
        g.channels[1].shift(2, granted)
        assert node_gini(g, 0) <= before

    def test_gini_mode_can_exceed_band(self):
        # out way above nu, in slightly below: band is tight, gini allows more
        g = make_graph([(0, 1, 100, 100), (0, 2, 100, 40), (0, 3, 100, 0)])
        band = max_agreeable_amount(g, 0, in_cid=2, out_cid=0, requested=100, totals=node_totals(g, 0))
        gini_amt = max_agreeable_amount(
            g, 0, in_cid=2, out_cid=0, requested=100, totals=node_totals(g, 0), mode="gini"
        )
        assert gini_amt >= band

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
        granted = max_agreeable_amount(g, 0, in_cid=1, out_cid=0, requested=requested, totals=node_totals(g, 0))
        assert 0 <= granted <= min(requested, b_out)
        if granted:
            tau = b_out + b_in + b_other
            kappa = cap_out + cap_in + cap_other
            # still on the original side of nu after the shift
            assert (b_out - granted) * kappa >= tau * cap_out
            assert (b_in + granted) * kappa <= tau * cap_in


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
        assert ledger.net(1) == 1050  # 1000 base + 50,000,000 msat * 1 ppm
        assert ledger.net(0) == -1050
        assert ledger.total() == 0

    def test_fee_parameters_respected(self):
        g = make_graph([(0, 1, 1000, 1000, 0, 0), (1, 2, 1000, 1000, 500, 100), (2, 0, 1000, 0, 21, 10**6)])
        cycle = RebalanceCycle(0, ((0, 1, 0), (1, 2, 1), (2, 0, 2)))
        ledger = FeeLedger()
        record_fees(ledger, g, cycle, 10)
        assert ledger.net(1) == 500 + (100 * 10 * 1000) // 10**6  # 501
        assert ledger.net(2) == 21 + (10**6 * 10 * 1000) // 10**6  # 10021
        assert ledger.net(0) == -(501 + 10021)

    def test_zero_sum_over_many_records(self):
        g = skewed_triangle()
        ledger = FeeLedger()
        for amount in (1, 7, 501):
            record_fees(ledger, g, triangle_cycle(), amount)
        assert ledger.total() == 0


class TestAttemptRebalance:
    def test_triangle_executes_five(self):
        g = skewed_triangle()
        ledger = FeeLedger()
        amount = attempt_rebalance(g, 0, 0, triangle_cycle(), config(), ledger, totals_of(g))
        assert amount == 5
        assert network_imbalance(g) == 0.0
        for u in g.nodes():
            assert node_gini(g, u) == 0.0
        assert ledger.total() == 0

    def test_declines_when_intermediate_refuses(self):
        # node 1 has nothing on its outgoing channel
        g = make_graph([(0, 1, 10, 10), (1, 2, 10, 0), (2, 0, 10, 10)])
        before = [(c.balance_a, c.balance_b) for c in g.channels.values()]
        outcome = attempt_rebalance(g, 0, 0, triangle_cycle(), config(), FeeLedger(), totals_of(g))
        assert outcome is None
        assert [(c.balance_a, c.balance_b) for c in g.channels.values()] == before

    def test_declines_on_zero_desired(self):
        g = make_graph([(0, 1, 10, 5), (1, 2, 10, 5), (2, 0, 10, 5)])
        assert attempt_rebalance(g, 0, 0, triangle_cycle(), config(), FeeLedger(), totals_of(g)) is None

    def test_sink_condition_blocks(self):
        # initiator's receiving side of the last channel sits above its nu
        def build():
            return make_graph(
                [(0, 1, 10, 10), (1, 2, 10, 10), (2, 0, 10, 4), (0, 3, 10, 0)]
            )

        g = build()
        assert attempt_rebalance(g, 0, 0, triangle_cycle(), config(), FeeLedger(), totals_of(g)) is None
        relaxed = config(require_sink_condition=False)
        g = build()
        assert attempt_rebalance(g, 0, 0, triangle_cycle(), relaxed, FeeLedger(), totals_of(g)) == 2

    def test_min_amount_threshold(self):
        g = skewed_triangle()
        cfg = config(min_amount=6)
        assert attempt_rebalance(g, 0, 0, triangle_cycle(), cfg, FeeLedger(), totals_of(g)) is None

    def test_mpp_splits_amount(self):
        g = make_graph([(0, 1, 1000, 1000), (1, 2, 1000, 1000), (2, 0, 1000, 1000)])
        cfg = config(strategy=Strategy.MPP, mpp_divisor=20)
        ledger = FeeLedger()
        amount = attempt_rebalance(g, 0, 0, triangle_cycle(), cfg, ledger, totals_of(g))
        assert amount == 25  # desired 500 split by 20

    def test_wrong_first_hop_rejected(self):
        g = skewed_triangle()
        with pytest.raises(ValueError):
            attempt_rebalance(g, 1, 0, triangle_cycle(), config(), FeeLedger(), totals_of(g))


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
        from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc

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
        from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc

        records = generate_synthetic(60, 3, (10_000, 1_000_000), seed=9)
        g = largest_scc(allocate_funds_coinflip(records, seed=9))
        res = run_simulation(g, config(seed=9, strategy=Strategy.FOAF, max_operations=5))
        assert len(res.operations) == 5

    def test_eval_hooks_run_on_samples(self):
        g = skewed_triangle()
        calls = []

        def sampler(snapshot):
            calls.append(network_imbalance(snapshot))
            return {"probe": float(len(calls)), "another": 0.0}

        res = run_simulation(g, config(), sampler)
        assert all("probe" in s.metrics for s in res.samples)
        assert all(list(s.metrics) == ["another", "probe"] for s in res.samples)
        assert len(calls) == len(res.samples)

    def test_fee_ledger_zero_sum_after_run(self):
        from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc

        records = generate_synthetic(50, 3, (10_000, 1_000_000), seed=3)
        g = largest_scc(allocate_funds_coinflip(records, seed=3))
        res = run_simulation(g, config(seed=3, strategy=Strategy.CYCLE5))
        assert res.ledger.total() == 0
        assert any(res.ledger.net(op.initiator) < 0 for op in res.operations)

    def test_operation_amounts_respect_min(self):
        from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc

        records = generate_synthetic(50, 3, (10_000, 1_000_000), seed=4)
        g = largest_scc(allocate_funds_coinflip(records, seed=4))
        res = run_simulation(g, config(seed=4, strategy=Strategy.CYCLE4, min_amount=500))
        assert all(op.amount >= 500 for op in res.operations)

    def test_gini_mode_runs_clean(self):
        from lnbalance.ingestion import allocate_funds_coinflip, generate_synthetic, largest_scc

        records = generate_synthetic(30, 2, (10_000, 100_000), seed=6)
        g = largest_scc(allocate_funds_coinflip(records, seed=6))
        res = run_simulation(g, config(seed=6, strategy=Strategy.FOAF, agreement_mode="gini"))
        # _VerifyWatch asserts per op that no intermediate's Gini increased
        assert res.ledger.total() == 0


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


def reference_simulation(g, config):
    """Deliberately naive `run_simulation`: same RNG calls, nothing cached.

    Totals, node Gini values and the network imbalance are recomputed at
    every step and cycles are enumerated afresh at every visit.  Returns
    (seq, initiator, cycle, amount, imbalance_after) per executed operation.
    """
    rng = random.Random(config.seed)
    ledger = FeeLedger()
    ops = []
    while True:
        order = g.nodes()
        rng.shuffle(order)
        executed_this_sweep = False
        for u in order:
            if len(ops) >= config.max_operations:
                return ops
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
                totals = {x: node_totals(g, x) for x in cycles[i].nodes}
                amount = attempt_rebalance(g, u, cid, cycles[i], config, ledger, totals)
                if amount is not None:
                    ops.append((len(ops) + 1, u, cycles[i], amount, network_imbalance(g)))
                    executed_this_sweep = True
                    break
        if not executed_this_sweep:
            return ops


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
        max_operations=st.sampled_from([3, 20, 150]),
    )
    def test_matches_run_simulation(self, n_nodes, degree, seed, **knobs):
        records = generate_synthetic(n_nodes, degree, (10_000, 1_000_000), seed)

        def graph():
            return largest_scc(allocate_funds_coinflip(records, seed))

        assume(graph().num_nodes() >= 2)
        cfg = config(seed=seed, **knobs)
        result = run_simulation(graph(), cfg)
        got = [(op.seq, op.initiator, op.cycle, op.amount, op.imbalance_after) for op in result.operations]
        assert got == reference_simulation(graph(), cfg)
