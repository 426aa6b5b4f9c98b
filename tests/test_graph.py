import gc
import json
import logging
import random
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankwalk import graph as graph_module
from rankwalk.graph import (
    DirectedGraph,
    NodeProfile,
    k_core,
    pagerank,
    parse_id,
    read_edge_list,
    read_profiles,
    write_edge_list,
    write_profiles,
)

from conftest import random_digraph


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        g = DirectedGraph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(1, 1)

    def test_duplicate_edge_not_double_counted(self):
        g = DirectedGraph()
        assert g.add_edge(1, 2)
        assert not g.add_edge(1, 2)
        assert g.num_edges() == 1

    def test_degrees_count_reciprocal_pair_twice(self):
        g = DirectedGraph.from_edges([(1, 2), (2, 1)])
        assert g.total_degree(1) == 2
        assert g.in_degree(1) == 1
        assert g.out_degree(1) == 1

    def test_subgraph_is_induced(self):
        g = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        sub = g.subgraph([0, 1, 2])
        assert sub.nodes == {0, 1, 2}
        assert set(sub.edges()) == {(0, 1), (1, 2), (2, 0)}


def brute_force_peel(graph, k):
    """Independent oracle: repeatedly delete any node with total degree < k."""
    nodes = set(graph.nodes)
    while True:
        current = graph.subgraph(nodes)
        doomed = [n for n in current.nodes if current.total_degree(n) < k]
        if not doomed:
            return current
        nodes -= {doomed[0]}


class TestKCore:
    def test_triangle_survives_k2(self, triangle):
        core = k_core(triangle, 2)
        assert core.nodes == {0, 1, 2}
        assert core.num_edges() == 3

    def test_star_collapses_at_k2(self):
        star = DirectedGraph.from_edges([(0, leaf) for leaf in range(1, 6)])
        assert k_core(star, 2).num_nodes() == 0

    def test_matches_brute_force_peeling(self):
        for seed in range(10):
            g = random_digraph(50, 0.1, seed)
            core = k_core(g, 3)
            expected = brute_force_peel(g, 3)
            assert core.nodes == expected.nodes
            assert set(core.edges()) == set(expected.edges())

    def test_peeling_order_independence(self):
        g = random_digraph(40, 0.08, 7)
        reference = k_core(g, 3).nodes
        for seed in range(5):
            rng = random.Random(seed)
            nodes = set(g.nodes)
            while True:
                current = g.subgraph(nodes)
                doomed = [n for n in current.nodes if current.total_degree(n) < 3]
                if not doomed:
                    break
                nodes -= {rng.choice(doomed)}
            assert nodes == reference

    def test_nesting_and_idempotence(self):
        g = random_digraph(60, 0.07, 3)
        for k in range(1, 5):
            inner = k_core(g, k + 1)
            outer = k_core(g, k)
            assert inner.nodes <= outer.nodes
            again = k_core(outer, k)
            assert again.nodes == outer.nodes
            assert set(again.edges()) == set(outer.edges())

    def test_empty_graph(self):
        assert k_core(DirectedGraph(), 3).num_nodes() == 0

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            k_core(triangle, 0)


def iterate_pagerank_by_hand(graph, damping, tolerance, max_iters=10000):
    """Independent dict-based power iteration."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    scores = {v: 1.0 / n for v in nodes}
    for _ in range(max_iters):
        new = {}
        dangling = sum(scores[v] for v in nodes if graph.out_degree(v) == 0)
        for v in nodes:
            incoming = sum(
                scores[u] / graph.out_degree(u) for u in graph.predecessors(v)
            )
            new[v] = damping * (incoming + dangling / n) + (1 - damping) / n
        delta = sum(abs(new[v] - scores[v]) for v in nodes)
        scores = new
        if delta < tolerance:
            break
    return scores


def pagerank_by_edge_loop(graph, damping=0.85, tolerance=1e-9, max_iters=200):
    """Reference: the same power iteration over edge arrays filled one edge at a time."""
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n, m = len(nodes), graph.num_edges()
    src = np.empty(m, dtype=np.intp)
    dst = np.empty(m, dtype=np.intp)
    pos = 0
    for node in nodes:
        for target in graph.successors(node):
            src[pos], dst[pos] = index[node], index[target]
            pos += 1
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_degree == 0.0
    inv_out = np.zeros(n)
    np.divide(1.0, out_degree, out=inv_out, where=~dangling)
    scores = np.full(n, 1.0 / n)
    for iterations in range(1, max_iters + 1):
        incoming = np.bincount(dst, weights=(scores * inv_out)[src], minlength=n)
        new_scores = damping * (incoming + scores[dangling].sum() / n) + (1.0 - damping) / n
        delta = np.abs(new_scores - scores).sum()
        scores = new_scores
        if delta < tolerance:
            break
    return {node: float(scores[index[node]]) for node in nodes}, iterations


class TestPageRank:
    def test_cycle_is_uniform(self):
        cycle = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        result = pagerank(cycle, 0.85)
        assert result.converged
        for score in result.scores.values():
            assert score == pytest.approx(0.25, abs=1e-9)

    def test_two_node_chain_matches_hand_iteration(self):
        g = DirectedGraph.from_edges([(0, 1)])
        result = pagerank(g, 0.85, tolerance=1e-12)
        expected = iterate_pagerank_by_hand(g, 0.85, 1e-12)
        for node in g.nodes:
            assert result.scores[node] == pytest.approx(expected[node], abs=1e-9)

    def test_scores_sum_to_one(self):
        for seed in range(5):
            g = random_digraph(30, 0.1, seed)
            result = pagerank(g)
            assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_random_graph_matches_hand_iteration(self):
        g = random_digraph(25, 0.15, 11)
        result = pagerank(g, 0.85, tolerance=1e-12)
        expected = iterate_pagerank_by_hand(g, 0.85, 1e-12)
        for node in g.nodes:
            assert result.scores[node] == pytest.approx(expected[node], abs=1e-9)

    def test_non_convergence_is_flagged(self):
        g = random_digraph(30, 0.1, 2)
        result = pagerank(g, 0.85, tolerance=1e-15, max_iters=2)
        assert not result.converged
        assert result.iterations == 2
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            pagerank(DirectedGraph())

    def test_bit_identical_to_edge_loop_build(self):
        for seed in range(8):
            rng = random.Random(seed)
            # sparse ids, some past 2**63, so that set order is not id order
            ids = list({rng.choice([rng.randint(0, 10**6), 2**63 + rng.randint(0, 10**6)]) for _ in range(40)})
            edges = [tuple(rng.sample(ids, 2)) for _ in range(150)]
            g = DirectedGraph.from_edges(edges, nodes=ids)
            result = pagerank(g, 0.85, tolerance=1e-12)
            scores, iterations = pagerank_by_edge_loop(g, 0.85, tolerance=1e-12)
            assert list(result.scores.items()) == list(scores.items())
            assert result.iterations == iterations


@contextmanager
def captured_warnings():
    """Messages logged by rankwalk.graph inside the block (caplog is per test, not per example)."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("rankwalk.graph")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


class TestEdgeListIO:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\n2,1\n")
        g = read_edge_list(path)
        assert set(g.edges()) == {(1, 2), (2, 1)}

    def test_round_trip_random_graph(self, tmp_path):
        g = random_digraph(60, 0.15, 5)
        assert g.num_edges() > 100
        path = tmp_path / "edges.csv"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\n1,1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_edge_list(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\nbogus\n")
        with pytest.raises(ValueError, match="line 3"):
            read_edge_list(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n1,2\n")
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list(path)

    def test_duplicate_edges_ignored_with_warning(self, tmp_path, caplog):
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\n1,2\n2,3\n1,2\n")
        with caplog.at_level("WARNING", logger="rankwalk.graph"):
            g = read_edge_list(path)
        assert g.num_edges() == 2
        assert "2 duplicate" in caplog.text

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_equals_row_by_row_build(self, data, tmp_path_factory):
        # ids of 19+ digits, and 10**19 >= 2**63, must take the per-line path
        ids = st.one_of(
            st.integers(0, 40),
            st.integers(0, 10**6),
            st.sampled_from([10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19]),
        )
        rows = [
            (u, v)
            for u, v in data.draw(st.lists(st.tuples(ids, ids), max_size=80))
            if u != v
        ]
        canonical_form = "{},{}\n"
        forms = st.sampled_from(
            [canonical_form, "{},{}\r\n", " {},{}\n", "{} , {}\n", "+{},{}\n", "\n{},{}\n"]
        )
        irregular = data.draw(st.booleans())
        lines = [
            (data.draw(forms) if irregular else canonical_form).format(u, v) for u, v in rows
        ]
        final_newline = data.draw(st.booleans())
        body = "".join(lines)
        if lines and not final_newline:
            body = body[:-1]
        path = tmp_path_factory.mktemp("edges") / "edges.csv"
        path.write_bytes(("source,target\n" + body).encode())
        # text-mode reading turns CR and CRLF into LF, so a CRLF row is still canonical
        text = body.replace("\r\n", "\n").replace("\r", "\n")
        canonical = text == "".join(f"{u},{v}\n" for u, v in rows) and all(
            u < 10**18 and v < 10**18 for u, v in rows
        )

        per_line_calls = []
        read_rows = graph_module._read_rows
        block = data.draw(st.sampled_from([3, 8, 17, 1 << 20]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_BLOCK_CHARS", block)
            mp.setattr(graph_module, "_read_rows", lambda *a: per_line_calls.append(1) or read_rows(*a))
            with captured_warnings() as warnings:
                got = read_edge_list(path)

        expected = DirectedGraph.from_edges(rows)
        assert list(got._succ) == list(expected._succ)
        assert [list(s) for s in got._succ.values()] == [list(s) for s in expected._succ.values()]
        assert list(got._pred) == list(expected._pred)
        assert [list(s) for s in got._pred.values()] == [list(s) for s in expected._pred.values()]
        assert got.num_edges() == expected.num_edges()
        duplicates = len(rows) - expected.num_edges()
        assert warnings == ([f"{path}: ignored {duplicates} duplicate edge(s)"] if duplicates else [])
        assert bool(per_line_calls) != canonical
        # one int object per node, wherever it appears
        keys = {id(node) for node in got._succ}
        assert all(id(v) in keys for s in got._succ.values() for v in s)
        assert all(id(v) in keys for s in got._pred.values() for v in s)

    def test_self_loop_line_same_on_both_paths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "_BLOCK_CHARS", 16)
        rows = "".join(f"{i},{i + 1}\n" for i in range(40)) + "7,7\n" + "1,2\n"
        canonical = tmp_path / "canonical.csv"
        canonical.write_text("source,target\n" + rows)
        irregular = tmp_path / "irregular.csv"
        irregular.write_text("source,target\n" + rows[:-1])
        messages = []
        for path in (canonical, irregular):
            with pytest.raises(ValueError, match="line 42: self-loop 7,7") as info:
                read_edge_list(path)
            messages.append(str(info.value).replace(str(path), "FILE"))
        assert messages[0] == messages[1]

    def test_id_past_int64_not_clamped(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\n99999999999999999999,3\n")
        g = read_edge_list(path)
        assert g.has_edge(99999999999999999999, 3)
        assert g.num_nodes() == 4


def random_profile(rng, node):
    friends = rng.sample([v for v in range(50) if v != node], rng.randint(0, 8))
    return NodeProfile(
        node=node,
        follower_count=rng.randint(0, 500),
        friends_recent_first=friends,
        language=rng.choice(["de", "en"]),
        protected=rng.random() < 0.1,
        created_at=float(rng.randint(0, 10**9)),
        status_count=rng.randint(0, 1000),
        last_status_at=float(rng.randint(0, 10**9)) if rng.random() < 0.5 else None,
    )


VALID_RECORD = (
    '{"node": 1, "follower_count": 0, "friends_recent_first": [2], '
    '"language": "de", "protected": false, "created_at": 0, "status_count": 0}'
)


class TestProfileIO:
    def test_single_line_parse(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        path.write_text(
            '{"node": 3, "follower_count": 42, "friends_recent_first": [7, 5], '
            '"language": "de", "protected": false, "created_at": 100.0, '
            '"status_count": 9, "last_status_at": 200.0}\n'
        )
        profiles = read_profiles(path)
        assert profiles[3].follower_count == 42
        assert profiles[3].friends_recent_first == [7, 5]
        assert profiles[3].last_status_at == 200.0

    def test_missing_optional_field_defaults_to_none(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        path.write_text(
            '{"node": 1, "follower_count": 0, "friends_recent_first": [], '
            '"language": "de", "protected": false, "created_at": 0, "status_count": 0}\n'
        )
        assert read_profiles(path)[1].last_status_at is None

    def test_round_trip(self, tmp_path):
        rng = random.Random(9)
        profiles = {n: random_profile(rng, n) for n in range(100)}
        path = tmp_path / "profiles.jsonl"
        write_profiles(profiles, path)
        assert read_profiles(path) == profiles

    def test_missing_mandatory_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        path.write_text(
            '{"node": 1, "follower_count": 0, "friends_recent_first": [], '
            '"language": "de", "protected": false, "created_at": 0, "status_count": 0}\n'
            '{"node": 2, "follower_count": 0, "friends_recent_first": [], '
            '"language": "de", "protected": false, "created_at": 0}\n'
        )
        with pytest.raises(ValueError, match=r"line 2.*status_count"):
            read_profiles(path)

    def test_duplicate_node_id_rejected(self, tmp_path):
        line = (
            '{"node": 1, "follower_count": 0, "friends_recent_first": [], '
            '"language": "de", "protected": false, "created_at": 0, "status_count": 0}\n'
        )
        path = tmp_path / "profiles.jsonl"
        path.write_text(line + line)
        with pytest.raises(ValueError, match="duplicate node id 1"):
            read_profiles(path)

    def test_profile_invariants(self):
        with pytest.raises(ValueError, match="itself"):
            NodeProfile(1, 0, [1], "de", False, 0.0, 0)
        with pytest.raises(ValueError, match="duplicate"):
            NodeProfile(1, 0, [2, 2], "de", False, 0.0, 0)

    @pytest.mark.parametrize(
        "record, message",
        [
            ("5", "expected a JSON object, got 5"),
            (VALID_RECORD.replace('"node": 1', '"node": null'), "field 'node'"),
            (VALID_RECORD.replace('"node": 1', '"node": "abc"'), "field 'node'.*'abc'"),
            (
                VALID_RECORD.replace('"friends_recent_first": [2]', '"friends_recent_first": 5'),
                "field 'friends_recent_first'.*5",
            ),
            (
                VALID_RECORD.replace('"friends_recent_first": [2]', '"friends_recent_first": [2.7]'),
                "field 'friends_recent_first'.*2.7",
            ),
            (
                VALID_RECORD.replace('"friends_recent_first": [2]', '"friends_recent_first": [true]'),
                "field 'friends_recent_first'.*True",
            ),
        ],
        ids=["not-object", "null-node", "string-node", "int-friends", "float-friend", "bool-friend"],
    )
    def test_malformed_record_names_path_line_and_field(self, tmp_path, record, message):
        path = tmp_path / "profiles.jsonl"
        path.write_text(VALID_RECORD.replace('"node": 1', '"node": 9') + "\n" + record + "\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: {message}"):
            read_profiles(path)

    def test_rejected_profile_names_path_and_line(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        path.write_text(VALID_RECORD.replace('"follower_count": 0', '"follower_count": -1') + "\n")
        with pytest.raises(ValueError, match=f"^{path}: line 1: profile 1: negative follower_count"):
            read_profiles(path)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("follower_count", 2.7, "int"),
            ("protected", "false", "bool"),
            ("language", 5, "str"),
            ("created_at", "1e9", "int or float"),
            ("status_count", True, "int"),
        ],
    )
    def test_field_of_another_json_type_is_not_coerced(self, tmp_path, field, value, expected):
        path = tmp_path / "profiles.jsonl"
        path.write_text(json.dumps({**json.loads(VALID_RECORD), field: value}) + "\n")
        message = f"{path}: line 1: field {field!r}: expected {expected}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_profiles(path)

    @pytest.mark.parametrize(
        "field, value, bad", [("node", -1, -1), ("friends_recent_first", [2, -3], -3)]
    )
    def test_negative_id_rejected(self, tmp_path, field, value, bad):
        path = tmp_path / "profiles.jsonl"
        path.write_text(json.dumps({**json.loads(VALID_RECORD), field: value}) + "\n")
        message = f"{path}: line 1: field {field!r}: expected a JSON integer >= 0, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_profiles(path)


# The id rule as stated: optional whitespace, at most one '+', ASCII digits.
ID_TEXT = re.compile(r"\s*\+?[0-9]+\s*")


@settings(max_examples=300, derandomize=True, database=None)
@given(
    text=st.one_of(
        st.from_regex(ID_TEXT, fullmatch=True),
        st.text(alphabet=" \t\x0b\x1c\x85\xa0\u2003+-_.e0123456789\u0663\uff11x", max_size=12),
        st.text(max_size=12),
    )
)
def test_parse_id_accepts_exactly_the_id_rule(text):
    if ID_TEXT.fullmatch(text):
        # int() rejects the separators \x1c-\x1f, which \s and str.strip() count as whitespace
        assert parse_id(text) == int(text.strip())
    else:
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_id(text)



@pytest.mark.parametrize(
    "reader, good, bad",
    [
        (read_edge_list, "source,target\n1,2\n", "source,target\n1,1\n"),
        (read_profiles, VALID_RECORD + "\n", "5\n"),
    ],
    ids=["edges", "profiles"],
)
@pytest.mark.parametrize("enabled", [True, False])
def test_reader_restores_gc_state(tmp_path, reader, good, bad, enabled):
    good_path, bad_path = tmp_path / "good", tmp_path / "bad"
    good_path.write_text(good)
    bad_path.write_text(bad)
    (gc.enable if enabled else gc.disable)()
    try:
        reader(good_path)
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError):
            reader(bad_path)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
