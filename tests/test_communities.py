import ast
import importlib.util
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankwalk.communities import (
    aggregate_weights,
    community_graph,
    community_sizes,
    label_propagation,
    load_assignment,
    write_assignment,
)
from rankwalk.graph import DirectedGraph


def imported_modules(module):
    """The absolute names of the modules that `module`'s source imports from:
    each `import x`, each `from x import ...`, and each name of `from . import
    ...`, which may be a module."""
    spec = importlib.util.find_spec(module)
    with open(spec.origin, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "rankwalk")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["rankwalk.graph", "rankwalk.communities"])
def test_imports_nothing_from_the_reference_sampler(module):
    """The graph types and the community layer sit below the baseline sampler."""
    assert not {
        name for name in imported_modules(module)
        if name == "rankwalk.reference" or name.startswith("rankwalk.reference.")
    }


def two_cliques_with_bridge(*extra_edges):
    edges = [
        (i, j)
        for base in (0, 5)
        for i in range(base, base + 5)
        for j in range(base, base + 5)
        if i < j
    ]
    return DirectedGraph.from_edges([*edges, (4, 5), *extra_edges])


def predecessor_sets(graph):
    """Each node's predecessors, read from graph.edges()."""
    predecessors = {n: set() for n in graph.nodes}
    for u, v in graph.edges():
        predecessors[v].add(u)
    return predecessors


def is_fixpoint(graph, labels):
    """Every node's label is the most frequent among its neighbors (tie: lowest)."""
    predecessors = predecessor_sets(graph)
    for node in graph.nodes:
        neighbors = {*graph.successors(node), *predecessors[node]}
        if not neighbors:
            continue
        counts = Counter(labels[v] for v in neighbors)
        best = min(counts, key=lambda lbl: (-counts[lbl], lbl))
        if labels[node] != best:
            return False
    return True


def label_propagation_on_neighbor_lists(graph, rng_seed=0, max_iters=100):
    """label_propagation as first written: node ids as labels, with a dict of
    sorted neighbor lists."""
    if graph.num_nodes() == 0:
        raise ValueError("label_propagation requires a non-empty graph")
    rng = random.Random(rng_seed)
    predecessors = predecessor_sets(graph)
    neighbors = {
        n: sorted({*graph.successors(n), *predecessors[n]}) for n in graph.nodes
    }
    labels = {n: n for n in graph.nodes}
    order = sorted(graph.nodes)
    for _ in range(max_iters):
        rng.shuffle(order)
        changed = False
        for node in order:
            if not neighbors[node]:
                continue
            counts = Counter(labels[v] for v in neighbors[node])
            best = min(counts, key=lambda lbl: (-counts[lbl], lbl))
            if best != labels[node]:
                labels[node] = best
                changed = True
        if not changed:
            break
    sizes = Counter(labels.values())
    ordered = sorted(sizes, key=lambda lbl: (-sizes[lbl], lbl))
    mapping = {old: new for new, old in enumerate(ordered)}
    return {node: mapping[lbl] for node, lbl in labels.items()}


# sparse ids, some up to 2**63 - 1, drawn in no particular order
sparse_ids = st.lists(
    st.one_of(st.integers(0, 10**6), st.integers(2**63 - 10**6, 2**63 - 1)),
    min_size=1,
    max_size=25,
    unique=True,
)


class TestLabelPropagation:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), rng_seed=st.integers(0, 2**32), max_iters=st.integers(1, 12))
    def test_equals_neighbor_list_implementation(self, data, rng_seed, max_iters):
        ids = data.draw(sparse_ids)
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pairs, max_size=60)) if len(ids) > 1 else []
        g = DirectedGraph.from_edges(edges, nodes=ids)
        got = label_propagation(g, rng_seed=rng_seed, max_iters=max_iters)
        assert got == label_propagation_on_neighbor_lists(g, rng_seed, max_iters)

    def test_two_cliques_split_at_the_bridge(self):
        g = two_cliques_with_bridge()
        for seed in range(5):
            labels = label_propagation(g, rng_seed=seed)
            assert len(set(labels.values())) == 2
            assert len({labels[n] for n in range(5)}) == 1
            assert len({labels[n] for n in range(5, 10)}) == 1
            assert is_fixpoint(g, labels)

    def test_complete_graph_is_one_community(self):
        g = DirectedGraph.from_edges([(i, j) for i in range(6) for j in range(6) if i != j])
        labels = label_propagation(g, rng_seed=0)
        assert set(labels.values()) == {0}

    def test_edgeless_graph_gives_singletons(self):
        g = DirectedGraph.from_edges([], nodes=range(4))
        labels = label_propagation(g, rng_seed=0)
        assert len(set(labels.values())) == 4

    def test_labels_renumbered_by_size(self):
        g = two_cliques_with_bridge((20, 21))  # a 2-node appendage community
        labels = label_propagation(g, rng_seed=1)
        sizes = Counter(labels.values())
        ordered = sorted(sizes.items())
        assert ordered[0][0] == 0
        assert sorted(sizes.values(), reverse=True) == [sizes[c] for c, _ in ordered]

    def test_deterministic_under_seed(self):
        g = two_cliques_with_bridge()
        assert label_propagation(g, rng_seed=3) == label_propagation(g, rng_seed=3)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            label_propagation(DirectedGraph.from_edges([]))


class TestAssignmentIO:
    def test_round_trip(self, tmp_path):
        assignment = {1: 0, 2: 0, 3: 1}
        path = tmp_path / "assignment.csv"
        write_assignment(assignment, path)
        assert load_assignment(path) == assignment

    def test_valid_file_against_graph(self, tmp_path):
        g = DirectedGraph.from_edges([(1, 2), (2, 3)])
        path = tmp_path / "assignment.csv"
        path.write_text("node,community\n1,0\n2,0\n3,1\n")
        assert load_assignment(path, g) == {1: 0, 2: 0, 3: 1}

    def test_missing_node_listed(self, tmp_path):
        g = DirectedGraph.from_edges([(1, 2), (2, 3)])
        path = tmp_path / "assignment.csv"
        path.write_text("node,community\n1,0\n2,0\n")
        with pytest.raises(ValueError, match=r"misses graph nodes: \[3\]"):
            load_assignment(path, g)

    def test_unknown_node_rejected(self, tmp_path):
        g = DirectedGraph.from_edges([(1, 2)])
        path = tmp_path / "assignment.csv"
        path.write_text("node,community\n1,0\n2,0\n99,1\n")
        with pytest.raises(ValueError, match=r"unknown nodes: \[99\]"):
            load_assignment(path, g)

    def test_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "assignment.csv"
        path.write_text("node,community\n1,0\n1,1\n")
        with pytest.raises(ValueError, match="duplicate node 1"):
            load_assignment(path)


class TestCommunityGraph:
    def test_cross_edges_counted(self):
        g = DirectedGraph.from_edges([(0, 5), (1, 5), (2, 6), (5, 0)])
        assignment = {0: 0, 1: 0, 2: 0, 5: 1, 6: 1}
        meta = community_graph(g, assignment, min_size=1)
        assert meta.weights[(0, 1)] == 3
        assert meta.weights[(1, 0)] == 1

    def test_min_size_filter_can_empty_the_meta_graph(self):
        g = DirectedGraph.from_edges([(0, 5)])
        meta = community_graph(g, {0: 0, 5: 1}, min_size=10)
        assert meta.sizes == {}
        assert meta.weights == {}

    def test_min_weight_filter(self):
        g = DirectedGraph.from_edges([(0, 5), (1, 5), (5, 0)])
        assignment = {0: 0, 1: 0, 5: 1}
        meta = community_graph(g, assignment, min_size=1, min_weight=2)
        assert meta.weights == {(0, 1): 2}

    def test_matches_brute_force_pair_counting(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(900)]
        g = DirectedGraph.from_edges([(i, j) for i, j in pairs if i != j], nodes=range(200))
        assignment = {n: rng.randrange(5) for n in range(200)}
        expected = Counter()
        intra_expected = 0
        for s, t in g.edges():
            if assignment[s] == assignment[t]:
                intra_expected += 1
            else:
                expected[(assignment[s], assignment[t])] += 1
        weights, intra = aggregate_weights(g, assignment)
        assert weights == dict(expected)
        assert intra == intra_expected

    def test_weight_conservation(self):
        rng = random.Random(12)
        pairs = [(rng.randrange(100), rng.randrange(100)) for _ in range(400)]
        g = DirectedGraph.from_edges([(i, j) for i, j in pairs if i != j], nodes=range(100))
        assignment = {n: rng.randrange(4) for n in range(100)}
        weights, intra = aggregate_weights(g, assignment)
        assert sum(weights.values()) + intra == g.num_edges()

    def test_partial_assignment_rejected(self):
        g = DirectedGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError, match="misses"):
            community_graph(g, {0: 0}, min_size=1)


def test_community_sizes():
    assert community_sizes({1: 0, 2: 0, 3: 1}) == {0: 2, 1: 1}
