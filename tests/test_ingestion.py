import dataclasses
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnbalance.ingestion import (
    SnapshotError,
    SnapshotRecord,
    allocate_funds_coinflip,
    generate_synthetic,
    largest_scc,
    liquidity_arcs,
    load_snapshot,
    load_state,
    write_snapshot,
    write_state,
)
from lnbalance.model import network_imbalance, node_gini


def rec(a, b, cap, base=1000, rate=1):
    return SnapshotRecord(a, b, cap, base, rate)


HEADER = "node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\n"
STATE_HEADER = HEADER.rstrip("\n") + ",balance_a_sat,balance_b_sat\n"


class TestLoadSnapshot:
    def test_csv_field_mapping(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\na,b,100000,1000,1\n")
        records = load_snapshot(p)
        assert records == [SnapshotRecord("a", "b", 100000, 1000, 1)]

    def test_zero_capacity_is_parse_error(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\na,b,0,1000,1\n")
        with pytest.raises(SnapshotError, match=":2:"):
            load_snapshot(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("")
        assert load_snapshot(p) == []

    def test_header_only(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\n")
        assert load_snapshot(p) == []

    def test_bad_header(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text("x,y,z,w,v\na,b,10,1,1\n")
        with pytest.raises(SnapshotError, match=":1:"):
            load_snapshot(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text(
            "node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\n"
            "a,b,100,1000,1\n"
            "c,d,notanumber,1000,1\n"
        )
        with pytest.raises(SnapshotError, match=":3:"):
            load_snapshot(p)

    def test_duplicates_kept_as_parallel(self, tmp_path):
        p = tmp_path / "net.csv"
        p.write_text(
            "node_a,node_b,capacity_sat,base_fee_msat,fee_rate_ppm\n"
            "a,b,100,1000,1\n"
            "a,b,100,1000,1\n"
        )
        assert len(load_snapshot(p)) == 2

    def test_jsonl_with_fee_defaults(self, tmp_path):
        p = tmp_path / "net.jsonl"
        lines = [
            {"node_a": "a", "node_b": "b", "capacity_sat": 5000},
            {"node_a": "b", "node_b": "c", "capacity_sat": 7000, "base_fee_msat": 0, "fee_rate_ppm": 9},
        ]
        p.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
        records = load_snapshot(p)
        assert records[0].base_fee_msat == 1000 and records[0].fee_rate_ppm == 1
        assert records[1].base_fee_msat == 0 and records[1].fee_rate_ppm == 9

    def test_jsonl_error_names_line(self, tmp_path):
        p = tmp_path / "net.jsonl"
        p.write_text('{"node_a": "a", "node_b": "b", "capacity_sat": 5000}\nnot json\n')
        with pytest.raises(SnapshotError, match=":2:"):
            load_snapshot(p)

    @pytest.mark.parametrize(
        "key, value",
        [("capacity_sat", 1.9), ("capacity_sat", True), ("base_fee_msat", 2.5), ("fee_rate_ppm", False)],
    )
    def test_jsonl_non_integer_names_line(self, tmp_path, key, value):
        # the CSV rule: a field that is not written as an integer is an error, not truncated
        p = tmp_path / "net.jsonl"
        bad = {"node_a": "b", "node_b": "c", "capacity_sat": 7000, key: value}
        p.write_text('{"node_a": "a", "node_b": "b", "capacity_sat": 5000}\n' + json.dumps(bad) + "\n")
        with pytest.raises(SnapshotError, match=f":2: {key} is not an integer"):
            load_snapshot(p)

    def test_roundtrip(self, tmp_path):
        records = [rec("a", "b", 100), rec("b", "c", 250, 500, 10)]
        p = tmp_path / "net.csv"
        write_snapshot(records, p)
        assert load_snapshot(p) == records

    def test_write_refuses_a_name_load_reads_as_jsonl(self, tmp_path):
        p = tmp_path / "net.jsonl"
        with pytest.raises(ValueError, match="written as CSV"):
            write_snapshot([rec("a", "b", 100)], p)
        assert not p.exists()

    def test_jsonl_raw_line_separator_in_node_id(self, tmp_path):
        # U+2028 is a line break to str.splitlines but not inside a JSON string
        p = tmp_path / "net.jsonl"
        lines = [
            {"node_a": "a\u2028x", "node_b": "b", "capacity_sat": 5000},
            {"node_a": "b", "node_b": "c", "capacity_sat": 7000},
        ]
        p.write_text("".join(json.dumps(o, ensure_ascii=False) + "\n" for o in lines), encoding="utf-8")
        assert load_snapshot(p) == [rec("a\u2028x", "b", 5000), rec("b", "c", 7000)]

    @pytest.mark.parametrize(
        "name, text, line",
        [
            # a text file breaks lines at a bare carriage return, so the row ends on line 4
            pytest.param("net.csv", HEADER + "a,b,10,1000,1\n" + '"a\rx",b,10,1000,1\n', 4, id="csv"),
            pytest.param("net.jsonl", '{"node_a": "a", "node_b": "b", "capacity_sat": 10}\n'
                                      '{"node_a": "a\\rx", "node_b": "b", "capacity_sat": 10}\n', 2, id="jsonl"),
        ],
    )
    def test_carriage_return_in_file_names_line(self, tmp_path, name, text, line):
        p = tmp_path / name
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(SnapshotError, match=f":{line}: a node id may not contain a carriage return"):
            load_snapshot(p)


# line-break characters csv.writer quotes (\n) or leaves bare (the others)
LINE_BREAK_IDS = [
    pytest.param("a\nx", id="line-feed"),
    pytest.param("a\u2028x", id="line-separator"),
    pytest.param("a\x85x", id="next-line"),
    pytest.param("a\x1cx", id="file-separator"),
]


@pytest.mark.parametrize("node", LINE_BREAK_IDS)
def test_line_break_in_node_id_round_trips(tmp_path, node):
    records = [rec(node, "b", 100), rec("b", "c", 50), rec("c", node, 70, 5, 2)]
    write_snapshot(records, tmp_path / "net.csv")
    assert load_snapshot(tmp_path / "net.csv") == records
    g = allocate_funds_coinflip(records, seed=1)
    write_state(g, tmp_path / "state.csv")
    h = load_state(tmp_path / "state.csv")
    assert h.labels == g.labels
    assert list(h.channels.values()) == list(g.channels.values())


class TestStateRoundtrip:
    def test_roundtrip_preserves_balances(self, tmp_path):
        g = allocate_funds_coinflip([rec("a", "b", 100), rec("b", "c", 50)], seed=3)
        p = tmp_path / "state.csv"
        write_state(g, p)
        h = load_state(p)
        assert [(c.balance_a, c.balance_b, c.capacity) for c in h.channels.values()] == [
            (c.balance_a, c.balance_b, c.capacity) for c in g.channels.values()
        ]
        assert h.labels == g.labels

    def test_plain_snapshot_rejected(self, tmp_path):
        p = tmp_path / "net.csv"
        write_snapshot([rec("a", "b", 100)], p)
        with pytest.raises(SnapshotError, match="balances"):
            load_state(p)

    def test_oversized_field_names_line(self, tmp_path):
        # beyond csv.field_size_limit(): a data error, not an uncaught csv.Error
        p = tmp_path / "state.csv"
        p.write_text(STATE_HEADER + "a,b,100,1000,1,60,40\n" + "x" * 200_000 + ",b,100,1000,1,60,40\n")
        with pytest.raises(SnapshotError, match=":3: field larger than field limit"):
            load_state(p)

    def test_balances_not_summing_to_capacity_name_line(self, tmp_path):
        p = tmp_path / "state.csv"
        p.write_text(STATE_HEADER + "a,b,100,1000,1,60,40\n" + "b,c,100,1000,1,60,30\n")
        with pytest.raises(SnapshotError, match=r":3: channel 1: balances 60\+30 do not sum to capacity 100"):
            load_state(p)


class TestCoinflip:
    def test_all_or_nothing(self):
        g = allocate_funds_coinflip([rec("a", "b", 100), rec("b", "c", 70)], seed=1)
        for ch in g.channels.values():
            assert (ch.balance_a, ch.balance_b) in ((ch.capacity, 0), (0, ch.capacity))

    def test_replay_determinism(self):
        records = [rec(f"n{i}", f"n{i+1}", 100 + i) for i in range(50)]
        a = allocate_funds_coinflip(records, seed=42)
        b = allocate_funds_coinflip(records, seed=42)
        assert [(c.balance_a, c.balance_b) for c in a.channels.values()] == [
            (c.balance_a, c.balance_b) for c in b.channels.values()
        ]

    def test_fraction_near_half_over_many_channels(self):
        records = [rec(f"a{i}", f"b{i}", 1000) for i in range(10_000)]
        g = allocate_funds_coinflip(records, seed=9)
        heads = sum(1 for ch in g.channels.values() if ch.balance_a == ch.capacity)
        assert abs(heads / 10_000 - 0.5) <= 0.02

    def test_labels_by_first_appearance(self):
        g = allocate_funds_coinflip([rec("x", "y", 10), rec("z", "x", 10)], seed=0)
        assert g.labels == {0: "x", 1: "y", 2: "z"}


def reachable(arcs, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in arcs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


@st.composite
def one_sided_graphs(draw):
    """Coin-flipped graphs with parallel channels; a twin copy forces tied components."""
    n = draw(st.integers(min_value=2, max_value=7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    specs = draw(st.lists(st.tuples(pair, st.booleans()), min_size=1, max_size=14))
    copies = ["v", "w"] if draw(st.booleans()) else ["v"]
    # shuffled, so the twin's nodes may take the smaller ids
    chans = [(f"{c}{a}", f"{c}{b}", a_funds) for c in copies for (a, b), a_funds in specs]
    chans = draw(st.permutations(chans))
    g = allocate_funds_coinflip([rec(a, b, 10) for a, b, _ in chans], seed=0)
    for ch, (_, _, a_funds) in zip(g.channels.values(), chans):
        ch.balance_a, ch.balance_b = (ch.capacity, 0) if a_funds else (0, ch.capacity)
    return g


class TestLargestScc:
    def one_sided(self, pairs):
        # channel fully funded by the first endpoint of each pair
        records = [rec(a, b, 100) for a, b in pairs]
        g = allocate_funds_coinflip(records, seed=0)
        for ch in g.channels.values():
            ch.balance_a, ch.balance_b = ch.capacity, 0
        return g

    def test_path_graph_collapses(self):
        g = self.one_sided([("a", "b"), ("b", "c")])
        assert largest_scc(g).nodes() == []

    def test_oriented_triangle_kept(self):
        g = self.one_sided([("a", "b"), ("b", "c"), ("c", "a")])
        scc = largest_scc(g)
        assert scc.num_nodes() == 3 and scc.num_channels() == 3

    def test_idempotent_on_strongly_connected(self):
        g = self.one_sided([("a", "b"), ("b", "c"), ("c", "a")])
        once = largest_scc(g)
        twice = largest_scc(once)
        assert twice.nodes() == once.nodes()
        assert sorted(twice.channels) == sorted(once.channels)

    def test_channels_are_copies(self):
        # a fee schedule off the defaults, so that every field must be carried over
        records = [rec("a", "b", 10, 7, 3), rec("b", "c", 20, 0, 5), rec("c", "a", 30), rec("a", "d", 40)]
        g = allocate_funds_coinflip(records, seed=0)
        for ch in g.channels.values():
            ch.balance_a, ch.balance_b = ch.capacity, 0
        before = {cid: dataclasses.astuple(ch) for cid, ch in g.channels.items()}
        scc = largest_scc(g)
        assert {cid: dataclasses.astuple(ch) for cid, ch in scc.channels.items()} == {
            cid: before[cid] for cid in scc.channels
        }
        for cid, ch in scc.channels.items():
            assert ch is not g.channels[cid]
            ch.balance_a, ch.balance_b = 0, ch.capacity
        assert {cid: dataclasses.astuple(ch) for cid, ch in g.channels.items()} == before

    def test_keeps_interior_channels(self):
        # triangle plus a dangling one-way spur; spur is dropped, triangle kept
        g = self.one_sided([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
        scc = largest_scc(g)
        assert sorted(scc.labels.values()) == ["a", "b", "c"]
        assert scc.num_channels() == 3

    def test_tie_broken_by_smallest_node_id(self):
        # two disjoint 2-cycles via parallel opposite channels; first-seen pair wins
        records = [rec("p", "q", 10), rec("q", "p", 10), rec("r", "s", 10), rec("s", "r", 10)]
        g = allocate_funds_coinflip(records, seed=0)
        for ch in g.channels.values():
            ch.balance_a, ch.balance_b = ch.capacity, 0
        scc = largest_scc(g)
        assert sorted(scc.labels.values()) == ["p", "q"]

    def test_every_pair_connected_by_liquidity_path(self):
        records = generate_synthetic(60, 2, (1000, 100_000), seed=5)
        scc = largest_scc(allocate_funds_coinflip(records, seed=5))
        arcs = liquidity_arcs(scc)
        nodes = scc.nodes()
        for u in nodes:
            assert reachable(arcs, u) >= set(nodes)

    @settings(max_examples=300, deadline=None)
    @given(one_sided_graphs())
    def test_matches_mutual_reachability(self, g):
        # the oracle: arcs straight from the balances, classes by reachability both ways
        arcs = {u: set() for u in g.nodes()}
        for ch in g.channels.values():
            if ch.balance_a > 0:
                arcs[ch.node_a].add(ch.node_b)
            if ch.balance_b > 0:
                arcs[ch.node_b].add(ch.node_a)
        reach = {u: reachable(arcs, u) for u in arcs}
        classes = {frozenset(v for v in reach[u] if u in reach[v]) for u in arcs}
        largest = max(len(c) for c in classes)
        best = min((c for c in classes if len(c) == largest), key=min)
        scc = largest_scc(g)
        # a single node has no channel to itself, so nothing of it is kept
        assert scc.nodes() == (sorted(best) if largest > 1 else [])
        assert list(scc.channels.values()) == [
            ch for ch in g.channels.values() if ch.node_a in best and ch.node_b in best
        ]
        assert scc.labels == {u: g.labels[u] for u in scc.nodes()}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_zeta_zero_or_one_after_coinflip(self, seed):
        records = generate_synthetic(30, 2, (1000, 10_000), seed=seed)
        g = allocate_funds_coinflip(records, seed=seed)
        for ch in g.channels.values():
            assert ch.balance_a in (0, ch.capacity)


class TestGenerateSynthetic:
    def test_minimal_tree(self):
        records = generate_synthetic(4, 1, (100, 200), seed=0)
        assert len(records) == 3

    def test_edge_count_formula(self):
        records = generate_synthetic(200, 4, (10_000, 10_000_000), seed=1)
        assert len(records) == (200 - 4 - 1) * 4 + 4  # 784

    def test_deterministic(self):
        a = generate_synthetic(50, 3, (1000, 100_000), seed=11)
        b = generate_synthetic(50, 3, (1000, 100_000), seed=11)
        assert a == b

    def test_capacities_in_range(self):
        records = generate_synthetic(80, 2, (5_000, 50_000), seed=2)
        assert all(5_000 <= r.capacity_sat <= 50_000 for r in records)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_synthetic(4, 0, (100, 200), seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 3, (100, 200), seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 2, (200, 100), seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(12, 2, (1, 2**63), seed=1)

    def test_no_self_channels_or_duplicate_attachments(self):
        records = generate_synthetic(100, 3, (1000, 10_000), seed=8)
        assert all(r.node_a != r.node_b for r in records)
        # a new node never attaches twice to the same target
        seen = set()
        for r in records:
            key = (r.node_a, r.node_b)
            assert key not in seen
            seen.add(key)


class TestPipeline:
    def test_deterministic_end_to_end(self):
        records = generate_synthetic(60, 3, (1000, 1_000_000), seed=21)
        a = largest_scc(allocate_funds_coinflip(records, seed=21))
        b = largest_scc(allocate_funds_coinflip(records, seed=21))
        assert a.nodes() == b.nodes()
        assert [(c.balance_a, c.balance_b) for c in a.channels.values()] == [
            (c.balance_a, c.balance_b) for c in b.channels.values()
        ]
        assert network_imbalance(a) == network_imbalance(b)

    def test_scc_nodes_have_channels(self):
        records = generate_synthetic(60, 3, (1000, 1_000_000), seed=4)
        scc = largest_scc(allocate_funds_coinflip(records, seed=4))
        for u in scc.nodes():
            assert node_gini(scc, u) >= 0.0  # raises if the node lost its channels
