import gc
import json
import logging
import math
import random
import re
import tracemalloc
import unittest.mock
import warnings
from collections import Counter
from contextlib import contextmanager
from itertools import product

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankwalk import graph as graph_module
from rankwalk.generate import build_profiles, generate_network, preferential_attachment
from rankwalk.graph import (
    DirectedGraph,
    ProfileTable,
    k_core,
    pagerank,
    parse_id,
    read_edge_list,
    read_profiles,
    write_edge_list,
    write_profiles,
)
from rankwalk.keywords import read_docs_jsonl
from rankwalk.oracle import SimulatedOracle
from rankwalk.sampler import SAMPLE_HEADER, SampleGraph, read_sample_csv, write_sample_csv

from conftest import SPARSE_IDS, assert_edges_ascend, profile_record, random_digraph


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"self-loop rejected: \(2, 2\)"):
            DirectedGraph.from_edges([(1, 2), (2, 2)])

    def test_rejects_negative_id(self):
        for edges, nodes in [([(1, -3)], ()), ([], [4, -3])]:
            with pytest.raises(ValueError, match="non-negative, got -3"):
                DirectedGraph.from_edges(edges, nodes=nodes)

    def test_rejects_id_past_int64(self):
        for edges, nodes in [([(1, 2**63)], ()), ([(1, 2)], [4, 2**64])]:
            largest = max(nodes, default=2**63)
            with pytest.raises(ValueError, match=rf"^node ids must be < 2\*\*63, got {largest}$"):
                DirectedGraph.from_edges(edges, nodes=nodes)
        assert DirectedGraph.from_edges([(1, 2**63 - 1)]).ids == [1, 2**63 - 1]

    def test_duplicate_edge_not_double_counted(self):
        g = DirectedGraph.from_edges([(1, 2), (1, 2)])
        assert g.num_edges() == 1

    def test_nodes_and_edge_ends_numbered_in_ascending_id_order(self):
        g = DirectedGraph.from_edges([(5, 3), (3, 9), (7, 5), (5, 1)], nodes=[8, 3, 8])
        assert list(g.nodes) == g.ids == [1, 3, 5, 7, 8, 9]
        assert list(g.edges()) == [(3, 9), (5, 1), (5, 3), (7, 5)]
        assert g.successors(8) == [] and g.successors(5) == [1, 3] and g.in_degree(5) == 1

    def test_empty_graph(self):
        g = DirectedGraph.from_edges([])
        assert g.num_nodes() == g.num_edges() == 0
        assert list(g.edges()) == [] and g.subgraph([1]).num_nodes() == 0

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


def dict_numbered(ids, edges):
    """The graph of `edges` on the ascending `ids`, its edge ends numbered one
    by one through a dict from id to index."""
    index = {node: i for i, node in enumerate(ids)}
    sources = np.array([index[u] for u, _ in edges], dtype=np.intp)
    targets = np.array([index[v] for _, v in edges], dtype=np.intp)
    return DirectedGraph(ids, sources, targets)


def assert_same_graph(got, expected):
    assert got.ids == expected.ids
    for name in ("out_offsets", "out_targets", "in_degrees"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), err_msg=name)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_numbering_by_sorted_ids_equals_dict_numbering(data):
    """A graph numbers its nodes by its ascending ids alone: index_of bisects
    them, and from_edges and subgraph number whole arrays by np.searchsorted
    over int64 ids. Each agrees with a dict from id to index, and so do the
    nodes view and the PageRank scores; a key past 2**63 - 1 is absent."""
    nodes = data.draw(st.lists(SPARSE_IDS, min_size=1, max_size=30, unique=True))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = [(u, v) for u, v in data.draw(st.lists(pairs, max_size=60)) if u != v]
    graph = DirectedGraph.from_edges(edges, nodes=nodes)
    ids = sorted(nodes)
    index = {node: i for i, node in enumerate(ids)}
    assert_same_graph(graph, dict_numbered(ids, edges))

    absent = data.draw(st.lists(SPARSE_IDS.filter(lambda n: n not in index), max_size=5))
    absent.append(2**63)
    view = graph.nodes
    assert list(view) == ids and len(view) == len(ids) and view == set(ids)
    for key in [*ids, *absent, "3", None, 1.5, math.nan]:
        assert graph.index_of(key) == index.get(key)
        assert (key in graph) == (key in view) == (key in index)
    assert "3" not in graph.nodes

    kept = data.draw(st.lists(st.sampled_from(ids + absent), max_size=12))
    if data.draw(st.booleans()):  # keys that are not ids are ignored
        kept += ["3", None]
    kept_ids = [node for node in ids if node in kept]
    inside = [(u, v) for u, v in graph.edges() if u in kept and v in kept]
    assert_same_graph(graph.subgraph(kept), dict_numbered(kept_ids, inside))

    scores = pagerank(graph).scores
    reference = dict(zip(ids, scores.column.tolist()))
    assert list(scores.items()) == list(reference.items())
    assert list(scores.values()) == list(reference.values()) and list(scores) == ids
    assert all(scores[node] == reference[node] for node in ids) and scores == reference
    assert all(node not in scores and scores.get(node) is None for node in [*absent, "3"])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    codes=hnp.arrays(
        np.int64,
        st.integers(0, 40),
        # a narrow range repeats values; the int64 extremes must survive the compare
        elements=st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1]),
    )
)
def test_distinct_equals_np_unique(codes):
    got = graph_module._distinct(codes)
    assert got.dtype == codes.dtype
    assert np.array_equal(got, np.unique(codes))


def brute_force_peel(graph, k, choose=min):
    """Independent oracle on plain sets: repeatedly delete a node, picked by
    `choose`, from those with total degree < k."""
    nodes, edges = set(graph.nodes), set(graph.edges())
    while True:
        degree = Counter(node for edge in edges for node in edge)
        doomed = sorted(n for n in nodes if degree[n] < k)
        if not doomed:
            return DirectedGraph.from_edges(edges, nodes=nodes)
        node = choose(doomed)
        nodes.discard(node)
        edges = {edge for edge in edges if node not in edge}


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
            assert brute_force_peel(g, 3, random.Random(seed).choice).nodes == reference

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1]),
            max_size=60,
        ),
        isolated=st.lists(st.integers(0, 20), max_size=5),
        k=st.integers(1, 6),
    )
    def test_equals_networkx_k_core(self, edges, isolated, k):
        g = DirectedGraph.from_edges(edges, nodes=isolated)
        expected = nx.DiGraph()
        expected.add_nodes_from(isolated)
        expected.add_edges_from(edges)
        expected = nx.k_core(expected, k)  # the degree of a DiGraph node is in + out
        core = k_core(g, k)
        assert g.ids == sorted(g.ids) and core.ids == sorted(core.ids)
        assert_edges_ascend(g)
        assert_edges_ascend(core)
        # kept nodes and edges stay in the input's order
        assert list(core.nodes) == [n for n in g.nodes if n in expected]
        assert list(core.edges()) == [e for e in g.edges() if expected.has_edge(*e)]
        assert core.num_edges() == expected.number_of_edges()

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
        assert k_core(DirectedGraph.from_edges([]), 3).num_nodes() == 0

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            k_core(triangle, 0)


def iterate_pagerank_by_hand(graph, damping, tolerance, max_iters=10000):
    """Independent dict-based power iteration."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    predecessors = {v: [] for v in nodes}
    for u, v in graph.edges():
        predecessors[v].append(u)
    scores = {v: 1.0 / n for v in nodes}
    for _ in range(max_iters):
        new = {}
        dangling = sum(scores[v] for v in nodes if graph.out_degree(v) == 0)
        for v in nodes:
            incoming = sum(
                scores[u] / graph.out_degree(u) for u in predecessors[v]
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
            pagerank(DirectedGraph.from_edges([]))

    @pytest.mark.parametrize("block", [5, 64, 1 << 16])
    def test_bit_identical_to_edge_loop_build(self, tmp_path, monkeypatch, block):
        """The same scores, bit for bit, and iterations as summing each node's
        terms edge by edge in edges() order, whatever the size of the blocks
        of source rows pagerank sums by: the graphs hold a hub whose
        out-degree passes a small block, dangling nodes and ids up to 2**63 - 1."""
        monkeypatch.setattr(graph_module, "_PAGERANK_BLOCK", block)
        for seed in range(8):
            rng = random.Random(seed)
            # sparse ids, some near 2**63, so that set order is not id order
            near_edge = 2**63 - 200  # below the sink and the isolated node
            ids = list({rng.choice([rng.randint(0, 10**6), near_edge - rng.randint(0, 10**6)]) for _ in range(40)})
            edges = [tuple(rng.sample(ids, 2)) for _ in range(150)]
            hub = ids[seed]
            edges += [(hub, v) for v in rng.sample(ids, 25) if v != hub]
            sink, isolated = 2**63 - 1 - seed, 2**63 - 100  # no friends: dangling
            edges.append((hub, sink))
            g = DirectedGraph.from_edges(edges, nodes=[*ids, isolated])
            path = tmp_path / f"edges{seed}.csv"
            path.write_text("source,target\n" + "".join(f"{u},{v}\n" for u, v in edges))
            read = read_edge_list(path)
            # the file's rows are not in id order
            assert edges != sorted(edges)
            assert g.ids == sorted(ids + [sink, isolated]) and read.ids == sorted(read.ids)
            assert g.out_degree(hub) > 20 and g.out_degree(sink) == g.out_degree(isolated) == 0
            assert max(ids) > 2**62
            blocks = graph_module._row_blocks(g.out_offsets)
            assert len(blocks) == 1 if block == 1 << 16 else len(blocks) > 2
            cases = [(g, g), (read, DirectedGraph.from_edges(edges))]
            for graph, reference in cases:
                result = pagerank(graph, 0.85, tolerance=1e-12)
                scores, iterations = pagerank_by_edge_loop(reference, 0.85, tolerance=1e-12)
                assert list(result.scores.items()) == list(scores.items())
                assert result.iterations == iterations

    @pytest.mark.memory
    def test_traced_peak_below_one_edge_long_array(self):
        """The sum runs by blocks of source rows into n-long buffers made once:
        on m >= 20 n edges the call's traced peak stays below one m-long
        float64 array. Gathering a weight per edge on every iteration, and
        casting the targets for np.bincount, traced over 3 such arrays."""
        n = 20_000
        rng = np.random.default_rng(3)
        sources, targets = rng.integers(0, n, 21 * n), rng.integers(0, n, 21 * n)
        loops = sources == targets
        graph = DirectedGraph(list(range(n)), sources[~loops], targets[~loops])
        m = graph.num_edges()
        assert m >= 20 * n
        tracemalloc.start()
        try:
            result = pagerank(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 8 * m

    def test_items_and_values_yield_python_floats_in_id_order(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_SCORE_SLICE", 7)
        g = random_digraph(30, 0.1, 3)
        scores = pagerank(g).scores
        column = scores.column.tolist()
        items = list(scores.items())
        assert items == list(zip(g.ids, column))
        assert all(type(v) is float for _, v in items)
        values = list(scores.values())
        assert values == column and all(type(v) is float for v in values)
        assert sum(scores.values()) == sum(column) == pytest.approx(1.0)

    @pytest.mark.memory
    def test_values_convert_a_bounded_slice_at_a_time(self):
        """Summing values() holds one slice of Python floats at a time, where
        converting the whole column holds 32 B a score."""
        n = 200_000
        scores = graph_module.PageRankScores(list(range(n)), np.full(n, 1.0 / n))
        tracemalloc.start()
        try:
            total = sum(scores.values())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == pytest.approx(1.0)
        assert peak < 1_000_000 < 32 * n


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


def assert_equals_row_build(got, rows, data):
    """Every read method of a DirectedGraph against a networkx.DiGraph built row
    by row; the nodes, and each node's successors, come in ascending id order."""
    expected = nx.DiGraph()
    expected.add_edges_from(rows)
    nodes = sorted(expected)
    edges = [(u, v) for u in nodes for v in sorted(expected.successors(u))]
    assert isinstance(got, DirectedGraph)
    assert got.ids == sorted(got.ids)
    assert_edges_ascend(got)
    assert list(got.nodes) == nodes and got.nodes == set(nodes)
    assert got.num_nodes() == expected.number_of_nodes()
    assert got.num_edges() == expected.number_of_edges()
    for node in nodes:
        assert node in got
        assert got.successors(node) == sorted(expected.successors(node))
        assert {u for u, v in got.edges() if v == node} == set(expected.predecessors(node))
        assert got.out_degree(node) == expected.out_degree(node)
        assert got.in_degree(node) == expected.in_degree(node)
        assert got.total_degree(node) == expected.degree(node)
    assert list(got.edges()) == edges
    absent = [10**19 + 1, max(nodes, default=0) + 1]
    assert all(node not in got for node in absent)
    probes = nodes[:10] + absent
    for u, v in [*product(probes, probes), *rows]:
        assert got.has_edge(u, v) == expected.has_edge(u, v)
    keep = data.draw(st.lists(st.sampled_from(probes), max_size=12))
    # the subgraph keeps the parent's node order, and its edges come in the
    # parent's edges() order
    sub, kept = got.subgraph(keep), set(keep)
    sub_edges = [(u, v) for u, v in edges if u in kept and v in kept]
    assert sub.ids == sorted(sub.ids)
    assert_edges_ascend(sub)
    assert list(sub.nodes) == [n for n in nodes if n in kept]
    assert list(sub.edges()) == sub_edges
    for node in sub.nodes:
        predecessors = {u for u, v in sub.edges() if v == node}
        assert predecessors == {u for u, v in sub_edges if v == node}
        assert sub.in_degree(node) == len(predecessors)


def tuple_read_rows(path, labels=()):
    """read_edge_list's per-line parse as it was, one tuple per row: the
    reference for the column reader. With `labels`, read_sample_csv's: rows
    (source, target, label) under the sample header, the label one of
    `labels`, and an edge listed twice rejected."""
    rows = []
    listed = set()

    def add(line):
        parts = line.split(",")
        if labels and (len(parts) != 3 or parts[2] not in labels):
            raise ValueError(f"malformed sample row {line!r}")
        if not labels and len(parts) != 2:
            raise ValueError(f"expected 'source,target', got {line!r}")
        u, v = parse_id(parts[0]), parse_id(parts[1])
        if u == v:
            raise ValueError(f"self-loop {u},{v}")
        if labels and (u, v) in listed:
            raise ValueError(f"edge {u},{v} listed twice")
        listed.add((u, v))
        rows.append((u, v, *parts[2:]))

    header = "source,target,provenance" if labels else "source,target"
    graph_module._read_lines(path, add, header=header)
    return rows


@contextmanager
def reader_steps():
    """The steps the edge-file reader takes past numpy's first attempt, in
    order: 'stripped' for its second attempt, 'check' for the line check."""
    steps = []
    stripped, check_lines = graph_module._stripped, graph_module._check_lines
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_stripped", lambda fh: steps.append("stripped") or stripped(fh))
        mp.setattr(
            graph_module, "_check_lines", lambda *a: steps.append("check") or check_lines(*a)
        )
        yield steps


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
        read = read_edge_list(path)
        assert read.nodes == g.nodes and set(read.edges()) == set(g.edges())

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

    def test_duplicate_edges_ignored_with_warning_on_per_line_path(self, tmp_path, caplog):
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\n\n1,2\n 2,3\n1,2")
        with caplog.at_level("WARNING", logger="rankwalk.graph"):
            g = read_edge_list(path)
        assert g.num_edges() == 2
        assert f"{path}: ignored 2 duplicate edge(s)" in caplog.text

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_equals_row_by_row_build(self, data, tmp_path_factory):
        # ids up to the largest, 2**63 - 1, which numpy's reader must take
        ids = st.one_of(
            st.integers(0, 40),
            st.integers(0, 10**6),
            st.sampled_from([10**18 - 1, 10**18, 2**63 - 2, 2**63 - 1]),
        )
        rows = [
            (u, v)
            for u, v in data.draw(st.lists(st.tuples(ids, ids), max_size=80))
            if u != v
        ]
        if rows:  # repeat some rows anywhere in the file
            repeats = data.draw(st.lists(st.sampled_from(rows), max_size=10))
            rows = data.draw(st.permutations(rows + repeats))
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
        with reader_steps() as steps, captured_warnings() as warnings:
            got = read_edge_list(path)

        assert_equals_row_build(got, rows, data)
        duplicates = len(rows) - len(set(rows))
        assert warnings == ([f"{path}: ignored {duplicates} duplicate edge(s)"] if duplicates else [])
        # numpy's reader takes every form and id drawn here, on its first attempt
        assert steps == []
        # index_of bisects the ids: each id's position, None for any other id
        assert all(got.index_of(node) == i for i, node in enumerate(got.ids))
        assert all(got.index_of(node) is None for node in [10**19 + 1, max(got.ids, default=0) + 1])

    def test_self_loop_line_same_on_both_paths(self, tmp_path):
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

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_per_line_path_equals_tuple_reader(self, data, tmp_path_factory):
        """The per-line path against the reader that kept a tuple per row: the
        same graph and duplicate count, or, for a bad row or byte anywhere in
        the file, the same message and line."""
        ids = st.one_of(st.integers(0, 30), st.integers(2**63 - 2, 2**63 + 2))
        rows = data.draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=40))
        forms = st.sampled_from(["{},{}\r\n", " {} , {}\n", "+{},{}\n", "\n{},{}\n", "{},{}\r"])
        lines = [data.draw(forms).format(u, v).encode() for u, v in rows]
        faults = data.draw(st.lists(st.sampled_from([
            b"1,2,3\n", b"bogus\n", b"7,7\n", b"-1,2\n", b"1_0,2\n", b"1,\xff2\n",
        ]), max_size=2))
        for fault in faults:
            lines.insert(data.draw(st.integers(0, len(lines))), fault)
        path = tmp_path_factory.mktemp("edges") / "edges.csv"
        path.write_bytes(b"source,target\n\n" + b"".join(lines))

        try:
            edges = tuple_read_rows(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_edge_list(path)
            assert str(info.value) == str(exc)
            return
        expected = DirectedGraph.from_edges(edges)
        with captured_warnings() as warnings:
            got = read_edge_list(path)
        assert got.ids == expected.ids
        assert np.array_equal(got.out_offsets, expected.out_offsets)
        assert np.array_equal(got.out_targets, expected.out_targets)
        assert np.array_equal(got.in_degrees, expected.in_degrees)
        duplicates = len(edges) - expected.num_edges()
        assert warnings == ([f"{path}: ignored {duplicates} duplicate edge(s)"] if duplicates else [])

    @pytest.mark.parametrize("header", ["source,target", "source,target,provenance"])
    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n", " \n"])
    def test_no_rows_is_an_empty_graph_with_no_warning(self, tmp_path, header, body):
        """A header-only or empty-body file, an edge list or a sample: numpy's
        reader warns on an empty body, and that warning must not escape."""
        path = tmp_path / "edges.csv"
        path.write_bytes((header + body).encode())
        with warnings.catch_warnings(record=True) as caught, captured_warnings() as logged:
            warnings.simplefilter("always")
            if header.endswith("provenance"):
                graph, codes = read_sample_csv(path)
                assert len(codes) == 0
            else:
                graph = read_edge_list(path)
        assert graph.ids == [] and graph.num_edges() == 0
        assert caught == [] and logged == []

    def test_per_line_reader_reads_only_ids_past_int64(self, tmp_path):
        """numpy's reader takes padded, '+'-signed, CRLF and blank-line files,
        and a sample as write_sample_csv writes it, on its first attempt;
        whitespace-only lines and a label's trailing whitespace on its second.
        Only a file with an id of 2**63 or more goes on to the line check,
        which rejects that id with its line."""
        path = tmp_path / "edges.csv"
        for body, expected_steps in [
            (" 1 , 2 \n\t3,4\xa0\n", []), ("+1,2\n3,+4\n", []), ("1,2\r\n3,4\r\n", []),
            ("\n1,2\n\n\n3,4\n\n", []), ("1,2\n3,4", []), ("1,2\n \t\n3,4\n", ["stripped"]),
        ]:
            path.write_bytes(("source,target\n" + body).encode())
            with reader_steps() as steps:
                assert list(read_edge_list(path).edges()) == [(1, 2), (3, 4)]
            assert steps == expected_steps
        sample = SampleGraph()
        for u, v, provenance in [(5, 1, "walked"), (1, 5, "symmetric"), (2**63 - 1, 5, "walked")]:
            sample.add_edge(u, v, provenance)
        write_sample_csv(sample, path)
        with reader_steps() as steps:
            graph, codes = read_sample_csv(path)
        assert steps == []
        assert list(graph.edges()) == list(sample.graph.edges())
        assert np.array_equal(codes, sample.codes)
        path.write_text(SAMPLE_HEADER + "\n1,5,symmetric \n")
        with reader_steps() as steps:
            graph, codes = read_sample_csv(path)
        assert steps == ["stripped"]
        assert list(graph.edges()) == [(1, 5)] and codes.tolist() == [1]
        path.write_text("source,target\n1,2\n9223372036854775808,3\n")
        message = f"{path}: line 3: expected an account id < 2**63, got '9223372036854775808'"
        with reader_steps() as steps, pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_edge_list(path)
        assert steps == ["stripped", "check"]

    def test_refused_file_without_a_bad_line_raises(self, tmp_path, monkeypatch):
        """A file numpy refuses twice, or a sample with a repeat, in which the
        line check finds no bad line raises one line, not an empty graph."""
        monkeypatch.setattr(graph_module, "_check_lines", lambda *a: None)
        path = tmp_path / "edges.csv"
        path.write_text("source,target\nbogus\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: numpy's reader refuses"):
            read_edge_list(path)
        path.write_text(SAMPLE_HEADER + "\n1,2,walked\n1,2,symmetric\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: an edge is listed twice"):
            read_sample_csv(path)

    def test_id_past_int64_not_clamped(self, tmp_path):
        """An id past int64 is rejected with its line, not clamped or wrapped."""
        path = tmp_path / "edges.csv"
        path.write_text("source,target\n1,2\n99999999999999999999,3\n")
        message = f"{path}: line 3: expected an account id < 2**63, got '99999999999999999999'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_edge_list(path)


# Edge file bodies that numpy's reader and the tuple reader may each take or
# refuse: ids as digit runs, '+' or '-' signed, with '_', '.' or an
# Arabic-Indic digit, near 2**63, padded with characters that str.strip and
# numpy may strip; wrong field counts, labels and near-labels, blank and
# whitespace-only lines, LF, CRLF and CR line ends, no final newline. Each
# faulty part is drawn one time in ten, so numpy's reader returns rows for
# over a quarter of the files.
@st.composite
def mostly(draw, common, rare):
    return draw(rare) if draw(st.integers(0, 9)) == 0 else draw(common)


def digit_runs(most):
    """Runs of 1 to `most` digits, some with leading zeros."""
    zeros = st.sampled_from(["", "", "0", "00"])
    return st.tuples(zeros, st.integers(0, 10**most - 1).map(str)).map(lambda t: "".join(t)[-most:])


# every character str.isspace() holds but the line ends '\n' and '\r': 27 of them
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\n\r")
PADDING = st.one_of(st.just(""), st.text(WHITESPACE, min_size=1, max_size=2))
ID_FIELDS = st.tuples(
    PADDING,
    mostly(st.just(""), st.sampled_from(["+", "-"])),
    mostly(digit_runs(18), st.one_of(
        st.just(""),
        digit_runs(20),
        st.integers(2**63 - 2, 2**63 + 1).map(str),
        st.sampled_from(["_", ".", "\u0663", "1_0", "2.0", "1\u0663"]),
    )),
    PADDING,
).map("".join)
LABELS = ("walked", "symmetric")
NEAR_LABELS = st.tuples(PADDING, st.sampled_from([*LABELS, "walke", "Walked", "seed", ""]), PADDING)
LABEL_FIELDS = mostly(st.sampled_from(LABELS), NEAR_LABELS.map("".join))


def edge_file_bodies(columns):
    row = st.tuples(*columns).map(",".join)
    line = mostly(row, st.one_of(st.lists(ID_FIELDS, max_size=4).map(",".join), PADDING))
    lines = st.lists(st.tuples(line, st.sampled_from(["\n", "\n", "\r\n", "\r"])), max_size=6)
    return st.tuples(lines, st.booleans()).map(join_lines)


def join_lines(drawn):
    """The (line, line end) pairs as one text, without the last line end
    unless `final_end`."""
    lines, final_end = drawn
    body = "".join(line + end for line, end in lines)
    return body if final_end or not lines else body[: -len(lines[-1][1])]


@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(labelled=st.booleans(), data=st.data())
def test_readers_equal_tuple_reader(labelled, data, tmp_path_factory):
    """Any edge file or sample: read_edge_list or read_sample_csv gives the
    tuple reader's graph, codes and duplicate warning, or its error text."""
    columns = [ID_FIELDS, ID_FIELDS, LABEL_FIELDS] if labelled else [ID_FIELDS, ID_FIELDS]
    body = data.draw(edge_file_bodies(columns))
    labels = LABELS if labelled else ()
    path = tmp_path_factory.mktemp("edges") / "edges.csv"
    path.write_bytes(((SAMPLE_HEADER if labelled else "source,target") + "\n" + body).encode())

    def read():
        return read_sample_csv(path) if labelled else (read_edge_list(path), None)

    try:
        rows = tuple_read_rows(path, labels)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == str(exc)
        return
    expected = DirectedGraph.from_edges(row[:2] for row in rows)
    with captured_warnings() as warnings:
        got, codes = read()
    assert got.ids == expected.ids
    assert np.array_equal(got.out_offsets, expected.out_offsets)
    assert np.array_equal(got.out_targets, expected.out_targets)
    if labelled:
        expected_codes = [labels.index(label) for *_, label in sorted(rows)]
        assert codes.dtype == np.uint8 and codes.tolist() == expected_codes
    duplicates = len(rows) - expected.num_edges()
    assert warnings == ([f"{path}: ignored {duplicates} duplicate edge(s)"] if duplicates else [])


@pytest.mark.memory
def test_read_edge_list_retains_under_64_bytes_per_edge(tmp_path):
    """A dict of sets costs ~270 B per edge and the CSR form ~32, mostly the
    arrays and the id list; 64 catches a return to per-edge objects."""
    graph, _ = generate_network("preferential-attachment", 20_000, 1, m=5)
    path = tmp_path / "edges.csv"
    write_edge_list(graph, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        frozen = read_edge_list(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert frozen.num_edges() == graph.num_edges() > 90_000
    assert retained / frozen.num_edges() < 64


@pytest.mark.memory
def test_from_edges_retains_under_64_bytes_per_edge():
    """The generator's graph: from_edges keeps the CSR arrays and the id list,
    and no per-edge object."""
    n = 20_000
    edges = preferential_attachment(n, 5, random.Random(1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = DirectedGraph.from_edges(edges, nodes=range(n))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.num_nodes() == n and graph.num_edges() > 90_000
    assert retained / graph.num_edges() < 64


@pytest.mark.memory
def test_graph_and_scores_keep_no_object_per_node_but_the_id_list(tmp_path):
    """Beyond its numpy arrays, a graph read from a file keeps only its id
    list, 8 B a node plus a 28 B int; an id -> index dict added ~80 B more. Its
    PageRank scores keep the one float64 column, where a dict from id to score
    kept ~75 B a node."""
    n = 100_000
    rng = random.Random(5)
    ids = [1000 + 3 * i for i in range(n)]
    rows = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
    rows += [(u, v) for u, v in zip(rng.choices(ids, k=n), rng.choices(ids, k=n)) if u != v]
    path = tmp_path / "edges.csv"
    path.write_text("source,target\n" + "".join(f"{u},{v}\n" for u, v in rows))
    # pagerank's first call in a process keeps ~11 KB that later calls reuse
    pagerank(DirectedGraph.from_edges([(0, 1), (1, 0)]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = read_edge_list(path)
        after_read = tracemalloc.get_traced_memory()[0]
        result = pagerank(graph)
        after_pagerank = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.num_nodes() == n and result.converged
    arrays = graph.out_offsets.nbytes + graph.out_targets.nbytes + graph.in_degrees.nbytes
    assert (after_read - before - arrays) / n <= 48
    assert result.scores.ids is graph.ids
    assert after_pagerank - after_read - result.scores.column.nbytes < 10_000


def random_profile(rng, node):
    friends = rng.sample([v for v in range(50) if v != node], rng.randint(0, 8))
    return profile_record(
        node,
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
        profiles = ProfileTable.from_records(random_profile(rng, n) for n in range(100))
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
        """Records built in memory pass the check that read_profiles runs."""
        for fields, message in (
            ({"friends_recent_first": [1]}, "profile 1: lists itself as a friend"),
            ({"friends_recent_first": [2, 2]}, "profile 1: duplicate entries in friend list"),
            ({"created_at": math.nan}, "profile 1: created_at must be finite, got nan"),
            ({"follower_count": 2.0}, "field 'follower_count': expected int, got 2.0"),
        ):
            with pytest.raises((ValueError, TypeError), match=f"^{re.escape(message)}$"):
                ProfileTable.from_records([profile_record(1, **fields)])

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
            (
                VALID_RECORD.replace('"friends_recent_first": [2]', '"friends_recent_first": [1]'),
                "profile 1: lists itself as a friend",
            ),
            (
                VALID_RECORD.replace('"friends_recent_first": [2]', '"friends_recent_first": [2, 2]'),
                "profile 1: duplicate entries in friend list",
            ),
            (
                VALID_RECORD.replace('"created_at": 0', '"created_at": NaN'),
                "profile 1: created_at must be finite, got nan",
            ),
            (
                VALID_RECORD.replace('"created_at": 0', '"created_at": Infinity'),
                "profile 1: created_at must be finite, got inf",
            ),
            (
                VALID_RECORD.replace("}", ', "last_status_at": NaN}'),
                "profile 1: last_status_at must be finite, got nan",
            ),
            (
                VALID_RECORD.replace("}", ', "last_status_at": -Infinity}'),
                "profile 1: last_status_at must be finite, got -inf",
            ),
        ],
        ids=[
            "not-object", "null-node", "string-node", "int-friends", "float-friend", "bool-friend",
            "self-friend", "repeated-friend", "nan-created-at", "infinite-created-at",
            "nan-last-status", "negative-infinite-last-status",
        ],
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

    @pytest.mark.parametrize("field", ["follower_count", "status_count"])
    def test_count_past_int64_names_path_line_and_field(self, tmp_path, field):
        """The table holds counts as int64; a larger JSON integer is rejected."""
        path = tmp_path / "profiles.jsonl"
        path.write_text(json.dumps({**json.loads(VALID_RECORD), field: 2**63}) + "\n")
        message = f"{path}: line 1: profile 1: {field} must be < 2**63, got {2**63}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize(
        "field, value, bad",
        [("node", 2**63, 2**63), ("friends_recent_first", [2, 2**64, 2**63], 2**64)],
    )
    def test_id_past_int64_rejected_by_the_file_and_the_records(self, tmp_path, field, value, bad):
        """The first id of 2**63 or more is named, with its field; the table
        builder rejects it whether the record comes from a file or not."""
        record = {**json.loads(VALID_RECORD), field: value}
        path = tmp_path / "profiles.jsonl"
        path.write_text(json.dumps(record) + "\n")
        message = f"field {field!r}: expected an integer < 2**63, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: {message}')}$"):
            read_profiles(path)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProfileTable.from_records([record])


# Small ids, and ones up to the largest an account id may be, 2**63 - 1.
PROFILE_IDS = st.one_of(st.integers(0, 60), st.integers(2**63 - 63, 2**63 - 1))
TIMES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def profile_sets(draw):
    """Profile records with distinct ids; friends may lack a profile of their own."""
    nodes = draw(st.lists(PROFILE_IDS, unique=True, max_size=12))
    records = []
    for node in nodes:
        friends = draw(st.lists(PROFILE_IDS.filter(lambda v: v != node), unique=True, max_size=5))
        records.append(
            profile_record(
                node,
                follower_count=draw(st.integers(0, 2**63 - 1)),
                friends_recent_first=friends,
                language=draw(st.sampled_from(["de", "en"]) | st.text(max_size=3)),
                protected=draw(st.booleans()),
                created_at=draw(TIMES),
                status_count=draw(st.integers(0, 2**63 - 1)),
                last_status_at=draw(st.none() | TIMES),
            )
        )
    return records


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    nodes=st.lists(PROFILE_IDS, min_size=1, max_size=8),
    bad=st.none() | st.tuples(st.integers(0, 8), PROFILE_IDS),
    blanks=st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_a_repeated_id_is_named_at_its_line_like_any_bad_line(nodes, bad, blanks, tmp_path_factory):
    """The table's build finds a repeated id by sorting, yet the error names
    the first bad line, as a per-line check with a set of the ids seen
    would: a repeat before a later bad line, and a bad line before a later
    repeat. A profile that both repeats an id and fails a check is named as
    the repeat."""
    records = [profile_record(node) for node in nodes]
    if bad is not None:
        position, node = bad
        records.insert(position, profile_record(node, follower_count=-1))
    lines = [("\n" if blank else "") + json.dumps(r) + "\n" for r, blank in zip(records, blanks)]
    path = tmp_path_factory.mktemp("profiles") / "profiles.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    seen, expected = set(), None
    for lineno, line in enumerate("".join(lines).splitlines(), start=1):
        if not line:
            continue
        record = json.loads(line)
        node = record["node"]
        if node in seen:
            expected = f"line {lineno}: duplicate node id {node}"
        elif record["follower_count"] < 0:
            expected = f"line {lineno}: profile {node}: negative follower_count"
        if expected is not None:
            break
        seen.add(node)
    if expected is None:
        assert read_profiles(path).ids.tolist() == sorted(seen)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}$"):
        read_profiles(path)
    with pytest.raises(ValueError, match=f"^{re.escape(expected.split(': ', 1)[1])}$"):
        ProfileTable.from_records(records)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(records=profile_sets(), asked=st.lists(PROFILE_IDS, max_size=20), block=st.integers(1, 4))
def test_rows_and_lookups_agree_with_a_dict_from_id_to_row(records, asked, block):
    """ProfileTable.rows, searching `block` ids at a time, and the bisecting
    table[id] and `in` give what a dict from id to row gives; len(table)
    stands for an id with no row."""
    table = ProfileTable.from_records(records)
    index = {node: row for row, node in enumerate(table)}
    with unittest.mock.patch.object(graph_module, "_ROW_BLOCK", block):
        for nodes in (asked, table.friend_ids.tolist()):
            got = table.rows(np.array(nodes, np.int64))
            assert got.dtype == np.int32
            assert got.tolist() == [index.get(u, len(table)) for u in nodes]
    for node in asked:
        assert (node in table) == (node in index)
        if node in index:
            assert table[node].node == node
        else:
            with pytest.raises(KeyError):
                table[node]


def typed_fields(values):
    """Each field value with its Python type, and each friend's type."""
    values = list(values)
    friends = values[list(graph_module.PROFILE_FIELDS).index("friends_recent_first")]
    return [(v, type(v)) for v in values], list(map(type, friends))


def record_fields(record):
    return typed_fields(map(record.__getitem__, graph_module.PROFILE_FIELDS))


def table_fields(profile):
    return typed_fields(getattr(profile, name) for name in graph_module.PROFILE_FIELDS)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(records=profile_sets(), data=st.data())
def test_profile_table_round_trips_field_by_field_and_byte_for_byte(
    records, data, tmp_path_factory
):
    directory = tmp_path_factory.mktemp("profiles")
    written, rewritten = directory / "written.jsonl", directory / "rewritten.jsonl"
    built = ProfileTable.from_records(records)
    write_profiles(built, written)
    assert written.read_text(encoding="utf-8") == "".join(
        json.dumps(r, separators=(",", ":")) + "\n" for r in sorted(records, key=lambda r: r["node"])
    )
    lines = written.read_text(encoding="utf-8").splitlines(keepends=True)
    # in any line order, and with a null last_status_at left out
    shuffled = data.draw(st.permutations(lines))
    (directory / "shuffled.jsonl").write_text(
        "".join(line.replace(',"last_status_at":null', "") for line in shuffled), encoding="utf-8"
    )
    expected = {r["node"]: record_fields(r) for r in records}
    for table in (built, read_profiles(written), read_profiles(directory / "shuffled.jsonl")):
        assert list(table) == table.ids.tolist() == sorted(expected)
        assert {node: table_fields(table[node]) for node in table} == expected
        assert [table_fields(p) for p in table.values()] == [expected[n] for n in table]
        assert [(n, table_fields(p)) for n, p in table.items()] == sorted(expected.items())
        assert table == built
        write_profiles(table, rewritten)
        assert rewritten.read_bytes() == written.read_bytes()


def test_generated_profile_table_equals_the_table_read_back(tmp_path):
    """The generator's table and the one read_profiles makes of its file hold
    the same columns."""
    _, generated = generate_network(
        "planted-blocks", 300, 4, protected_fraction=0.1, language_fraction=0.7,
        follower_noise=0.3,
    )
    write_profiles(generated, tmp_path / "profiles.jsonl")
    read = read_profiles(tmp_path / "profiles.jsonl")
    for name in (n for n in ProfileTable.__slots__ if not n.startswith("_")):
        np.testing.assert_array_equal(getattr(read, name), getattr(generated, name), err_msg=name)
    assert read == generated


@pytest.mark.memory
def test_profile_table_holds_no_object_per_account(tmp_path):
    """A profile table plus the oracle built on it keep the numpy columns and
    the friend rows, with no id -> row dict and no Python int per account:
    at most 120 B per account on a preferential-attachment world (~92 B, 40
    of them friend ids), whether the table was read from a file or made by
    the generator, where the id list and dict kept ~180 B and a dict of
    per-account objects ~510 B."""
    n = 20_000
    edges = preferential_attachment(n, 5, random.Random(11))
    path = tmp_path / "profiles.jsonl"
    write_profiles(build_profiles(n, edges, random.Random(12)), path)
    for make in (lambda: read_profiles(path), lambda: build_profiles(n, edges, random.Random(12))):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = make()
            oracle = SimulatedOracle(table)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert oracle.profiles is table and len(table) == n
        assert type(table.ids) is np.ndarray and table.ids.dtype == np.int64
        assert not table.ids.flags.writeable
        assert not hasattr(table, "index")
        assert retained / n <= 120
        del table, oracle


# The id rule as stated: optional whitespace, at most one '+', ASCII digits,
# and a value below 2**63.
ID_TEXT = re.compile(r"\s*\+?[0-9]+\s*")


@settings(max_examples=300, derandomize=True, database=None)
@given(
    text=st.one_of(
        st.from_regex(ID_TEXT, fullmatch=True),
        st.integers(2**63 - 2, 2**63 + 1).map(str),
        st.text(alphabet=" \t\x0b\x1c\x85\xa0\u2003+-_.e0123456789\u0663\uff11x", max_size=12),
        st.text(max_size=12),
    )
)
def test_parse_id_accepts_exactly_the_id_rule(text):
    if ID_TEXT.fullmatch(text) and int(text.strip()) < 2**63:
        # int() rejects the separators \x1c-\x1f, which \s and str.strip() count as whitespace
        assert parse_id(text) == int(text.strip())
    else:
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_id(text)



JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
JSON_OBJECTS = st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3).map(json.dumps)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    line=st.one_of(
        JSON_OBJECTS,
        JSON_VALUES.map(json.dumps),  # arrays and scalars
        st.tuples(JSON_OBJECTS, st.text(alphabet=' ,]}x0"{', min_size=1, max_size=3)).map("".join),
        JSON_OBJECTS.map("\ufeff".__add__),
        st.text(alphabet='abu0"\\', max_size=5).map('{{"k": "{}"}}'.format),  # escapes
        st.text(alphabet='{}[]":, \tae0Nn', max_size=12),  # fragments
    )
)
def test_json_lines_accept_and_reject_exactly_as_json_loads(line, tmp_path_factory):
    line = line.strip()
    assume(line)
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    records = []
    try:
        expected = json.loads(line)
    except json.JSONDecodeError as exc:
        message = f"{path}: line 1: invalid JSON ({exc})"
    else:
        message = f"{path}: line 1: expected a JSON object, got {expected!r:.80}"
        if type(expected) is dict:
            graph_module._read_json_lines(path, records.append)
            # json.dumps tells NaN, -0.0 and key order apart, where == would not
            assert [json.dumps(r) for r in records] == [json.dumps(expected)]
            return
    with pytest.raises(ValueError) as info:
        graph_module._read_json_lines(path, records.append)
    assert str(info.value) == message
    assert records == []


@pytest.mark.parametrize(
    "reader, good, bad",
    [
        (read_edge_list, "source,target\n1,2\n", "source,target\n1,1\n"),
        (read_profiles, VALID_RECORD + "\n", "5\n"),
        (read_docs_jsonl, '{"node": 1, "ts": 1.0, "text": "a"}\n', '{"node": 1}\n'),
    ],
    ids=["edges", "profiles", "docs"],
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
