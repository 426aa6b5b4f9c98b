import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankwalk.graph import DirectedGraph, UndirectedGraph
from rankwalk.reference import SEED_POLLS_PER_NODE, RankDegreeResult, rank_degree

from conftest import SPARSE_IDS


def undirected(edges, nodes=()):
    return UndirectedGraph.from_directed(DirectedGraph.from_edges(edges, nodes=nodes))


def path_graph():
    return undirected([(0, 1), (1, 2)])


def star_graph(leaves=4):
    return undirected([(0, leaf) for leaf in range(1, leaves + 1)])


def adjacency(edges, nodes=()):
    """Each node's set of neighbors, built edge by edge."""
    adj = {node: set() for node in nodes}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def rows(graph):
    """Each node's row of the CSR, as a list of ids."""
    ids, offsets = graph.ids, graph.out_offsets.tolist()
    return {
        node: [ids[j] for j in graph.out_targets[offsets[i] : offsets[i + 1]].tolist()]
        for i, node in enumerate(ids)
    }


class TestUndirectedGraph:
    def test_from_directed_collapses_reciprocal_pairs(self):
        d = DirectedGraph.from_edges([(0, 1), (1, 0), (1, 2)])
        u = UndirectedGraph.from_directed(d)
        assert u.num_edges() == 2 * 2
        assert rows(u) == {0: [1], 1: [0, 2], 2: [1]}

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_from_directed_equals_edge_by_edge_build(self, data):
        # sparse ids, so that first-appearance order is not id order
        nodes = data.draw(st.lists(SPARSE_IDS, min_size=1, max_size=30, unique=True))
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        edges = [(u, v) for u, v in data.draw(st.lists(pairs, max_size=60)) if u != v]
        # close some edges into reciprocal pairs; nodes without edges stay isolated
        reciprocal = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges += [(v, u) for (u, v), back in zip(edges, reciprocal) if back]
        directed = DirectedGraph.from_edges(edges, nodes=nodes)
        expected = nx.Graph()
        expected.add_nodes_from(directed.nodes)
        expected.add_edges_from(directed.edges())
        got = UndirectedGraph.from_directed(directed)
        assert isinstance(got, DirectedGraph)
        assert got.ids is directed.ids
        assert all(got.index_of(node) == i for i, node in enumerate(got.ids))
        assert all(got.index_of(node) is None for node in [2**64 + 1, max(got.ids) + 1])
        assert got.ids == sorted(expected.nodes)
        assert rows(got) == {node: sorted(expected[node]) for node in expected.nodes}
        assert got.num_edges() == 2 * expected.number_of_edges()
        assert all(got.has_edge(u, v) == got.has_edge(v, u) for u in nodes for v in nodes)
        assert np.array_equal(got.in_degrees, np.diff(got.out_offsets))


def simulate_rules(
    adj,
    initial_seeds,
    sample_size,
    rng_seed,
    rho=1.0,
    collapse=True,
    reseed_on_leaf=True,
    seed_source=None,
):
    """Independent step-by-step simulation of the sampling rules on a dict of
    neighbor sets: re-rank each seed's neighborhood with sorted() on every step
    and take the top k."""
    work = {n: set(nbrs) for n, nbrs in adj.items()}
    rng = random.Random(rng_seed)
    threshold = 1 if reseed_on_leaf else 0
    seed_count = max(1, len(initial_seeds))
    seeds = list(initial_seeds)
    fresh = True
    walked = []
    while 2 * len(walked) < sample_size:
        if not fresh and all(len(work[s]) <= threshold for s in seeds):
            eligible = sorted(n for n in work if work[n])
            if not eligible:
                return RankDegreeResult(walked, reached_target=False)
            if seed_source is None:
                seeds = [rng.choice(eligible) for _ in range(seed_count)]
            else:
                seeds = []
                while len(seeds) < seed_count:
                    candidate = seed_source()
                    if candidate in eligible:
                        seeds.append(candidate)
            fresh = True
        new_seeds = []
        for w in seeds:
            if 2 * len(walked) >= sample_size:
                break
            if not work[w]:
                continue
            k = 1 if rho >= 1.0 else max(1, math.floor(rho * len(work[w])))
            ranked = sorted(work[w], key=lambda x: (-len(work[x]), x))
            for v in ranked[:k]:
                walked.append((w, v))
                work[w].remove(v)
                work[v].remove(w)
                new_seeds.append(v)
                if 2 * len(walked) >= sample_size:
                    break
        if collapse:
            deduped = []
            for v in new_seeds:
                if v not in deduped:
                    deduped.append(v)
            seeds = deduped
        else:
            seeds = new_seeds
        fresh = False
    return RankDegreeResult(walked, reached_target=True)


class TestRankDegree:
    def test_path_forced_walk(self):
        result = rank_degree(path_graph(), [0], 4, rng_seed=0)
        assert set(result.edges) == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert result.reached_target
        assert result.walked[0] == (0, 1)

    def test_star_matches_direct_rule_simulation(self):
        star = [(0, leaf) for leaf in range(1, 5)]
        for seed in range(5):
            result = rank_degree(undirected(star), [1], 8, rng_seed=seed)
            assert result == simulate_rules(adjacency(star), [1], 8, seed)
            assert result.walked[0] == (1, 0)  # the hub is the only neighbor

    def test_random_graphs_match_direct_rule_simulation(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(5, 40)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.15
            ]
            if not edges:
                continue
            graph = undirected(edges, nodes=range(n))
            target = min(2 * len(edges), rng.randrange(2, 2 * len(edges) + 2))
            seeds = [rng.choice(sorted(graph.nodes))]
            result = rank_degree(graph, seeds, target, rng_seed=seed)
            assert result == simulate_rules(adjacency(edges, range(n)), seeds, target, seed)

    def test_rho_one_selects_single_neighbor_per_step(self):
        # hub degree 4, but rho = 1 is the single-best-neighbor variant
        result = rank_degree(star_graph(4), [0], 2, rho=1.0, rng_seed=0)
        assert len(result.walked) == 1
        assert result.walked[0] == (0, 1)

    def test_rho_variant_selects_top_k(self):
        # k = max(1, floor(0.5 * 4)) = 2 neighbors of the hub in one step
        result = rank_degree(star_graph(4), [0], 4, rho=0.5, rng_seed=0)
        assert result.walked == [(0, 1), (0, 2)]

    def test_sample_edges_come_in_symmetric_pairs(self):
        rng = random.Random(3)
        edges = [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.2]
        graph = undirected(edges)
        result = rank_degree(graph, [edges[0][0]], 30, rng_seed=1)
        for i in range(0, len(result.edges) - 1, 2):
            w, v = result.edges[i]
            assert result.edges[i + 1] == (v, w)

    def test_exhaustion_returns_partial_flagged(self):
        result = rank_degree(path_graph(), [0], 100, rng_seed=0)
        assert not result.reached_target
        assert len(result.edges) == 4  # both path edges, both orientations

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds not in graph"):
            rank_degree(path_graph(), [99], 2)

    def test_collapse_merges_walkers(self):
        # two seeds walking into the same hub collapse into one walker
        graph = star_graph(4)
        merged = rank_degree(graph, [1, 2], 8, rng_seed=5, collapse=True)
        independent = rank_degree(graph, [1, 2], 8, rng_seed=5, collapse=False)
        assert merged.walked[:2] == [(1, 0), (2, 0)]
        assert independent.walked[:2] == [(1, 0), (2, 0)]
        # after the first round both walkers sit on the hub: collapsed keeps one
        assert merged.walked[2][0] == 0
        assert independent.walked[2][0] == 0 and independent.walked[3][0] == 0

    def test_seed_source_rejection_draws(self):
        # seed_source ids outside the working graph are skipped, not walked
        graph = path_graph()
        draws = iter([0, 0, 1, 2, 2, 2, 1])
        result = rank_degree(
            graph, [0], 4, rng_seed=0, reseed_on_leaf=False, seed_source=lambda: next(draws)
        )
        assert result.reached_target
        assert len(result.edges) == 4

    def test_seed_source_without_usable_ids_raises(self):
        # after 0-1 is walked only 5-6 is left; the source yields walked-out
        # nodes and an id outside the graph, never 5 or 6
        graph = undirected([(0, 1), (5, 6)])
        polls = []
        source = itertools.cycle([0, 1, 99])

        def seed_source():
            polls.append(None)
            return next(source)

        with pytest.raises(ValueError, match="no usable seed"):
            rank_degree(graph, [0], 4, seed_source=seed_source)
        assert len(polls) == SEED_POLLS_PER_NODE * 4

    def test_stale_degree_refreshed_between_visits(self):
        # Walker one at hub 0 first takes 9. Walker two at 3 then takes its only
        # neighbor 1, so 1's degree falls from 3 to 2 while 0's heap still holds 3.
        # Walker three, back at 0, must refresh that key and take 2 (degree 3).
        edges = [(0, 1), (0, 2), (0, 9), (9, 10), (9, 11), (9, 12),
                 (1, 3), (1, 4), (2, 5), (2, 6)]
        result = rank_degree(undirected(edges), [0, 3, 0], 6, rng_seed=0, collapse=False)
        assert result.walked == [(0, 9), (3, 1), (0, 2)]
        assert result == simulate_rules(adjacency(edges), [0, 3, 0], 6, 0, collapse=False)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 30),
        p=st.sampled_from([0.05, 0.15, 0.4]),
        rho=st.sampled_from([1.0, 0.9, 0.5, 0.3]),
        collapse=st.booleans(),
        reseed_on_leaf=st.booleans(),
        use_seed_source=st.booleans(),
        data=st.data(),
    )
    def test_matches_sorted_reference(
        self, graph_seed, n, p, rho, collapse, reseed_on_leaf, use_seed_source, data
    ):
        # node i gets id label[i]: dense ids in order, or sparse ones (some near
        # 2**63) in no particular order, so that first appearance is not id order
        label = data.draw(
            st.one_of(
                st.just(range(n)), st.lists(SPARSE_IDS, min_size=n, max_size=n, unique=True)
            )
        )
        rng = random.Random(graph_seed)
        edges = [
            (label[i], label[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        nodes = [label[i] for i in range(n)]
        graph = undirected(edges, nodes=nodes)
        seeds = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
        target = data.draw(st.integers(0, 2 * len(edges) + 4))
        # cycling through every node always reaches an eligible one
        order = data.draw(st.permutations(nodes))

        def run(sampler, graph):
            source = itertools.cycle(order).__next__ if use_seed_source else None
            return sampler(
                graph, seeds, target, rng_seed=graph_seed, rho=rho, collapse=collapse,
                reseed_on_leaf=reseed_on_leaf, seed_source=source,
            )

        before = rows(graph)
        result = run(rank_degree, graph)
        assert rows(graph) == before
        assert graph.num_edges() == 2 * len(edges)
        expected = run(simulate_rules, adjacency(edges, nodes))
        assert result.edges == expected.edges
        assert result.walked == expected.walked
        assert result.reached_target == expected.reached_target
