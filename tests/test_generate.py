import hashlib
import random
from statistics import mean

import pytest

from rankwalk.generate import (
    build_profiles,
    generate_network,
    planted_blocks,
    preferential_attachment,
    reciprocal_er,
    two_class,
)
from rankwalk.graph import DirectedGraph, write_edge_list, write_profiles


class TestReciprocalER:
    def test_p_one_gives_complete_reciprocal_digraph(self):
        edges = reciprocal_er(10, 1.0, random.Random(0))
        assert len(edges) == 90
        g = DirectedGraph.from_edges(edges)
        for u, v in g.edges():
            assert g.has_edge(v, u)

    def test_p_zero_gives_no_edges(self):
        assert reciprocal_er(10, 0.0, random.Random(0)) == []


class TestPreferentialAttachment:
    def test_edge_count_arithmetic(self):
        edges = preferential_attachment(1000, 3, random.Random(1))
        assert len(edges) == 2991  # 3 per new node after a 3-node edgeless seed

    def test_edges_point_to_older_nodes(self):
        edges = preferential_attachment(200, 2, random.Random(2))
        assert all(source > target for source, target in edges)

    def test_out_degree_is_m_for_new_nodes(self):
        edges = preferential_attachment(100, 3, random.Random(3))
        g = DirectedGraph.from_edges(edges, nodes=range(100))
        for node in range(3, 100):
            assert g.out_degree(node) == 3

    def test_skewed_in_degrees(self):
        edges = preferential_attachment(2000, 3, random.Random(4))
        g = DirectedGraph.from_edges(edges, nodes=range(2000))
        degrees = sorted((g.in_degree(n) for n in g.nodes), reverse=True)
        assert degrees[0] > 20 * degrees[len(degrees) // 2 + 100]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            preferential_attachment(3, 3, random.Random(0))


class TestTwoClass:
    def test_in_degree_means_differ_by_factor(self):
        n, p, factor = 2000, 0.01, 20.0
        edges, high = two_class(n, p, factor, 0.01, random.Random(5))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        high_mean = mean(g.in_degree(v) for v in high)
        low_mean = mean(g.in_degree(v) for v in range(n) if v not in high)
        assert high_mean / low_mean == pytest.approx(factor, rel=0.10)

    def test_high_class_size(self):
        _, high = two_class(500, 0.01, 10.0, 0.02, random.Random(6))
        assert len(high) == 10


class TestPlantedBlocks:
    def test_blocks_are_dense_and_cross_links_sparse(self):
        edges = planted_blocks(600, 3, 3, 0.02, random.Random(20))
        g = DirectedGraph.from_edges(edges, nodes=range(600))
        block_of = lambda v: min(v // 200, 2)
        cross = sum(1 for s, t in g.edges() if block_of(s) != block_of(t))
        assert cross < 0.1 * g.num_edges()
        assert g.num_edges() > 3 * 500  # the PA backbone is present

    def test_cross_links_are_reciprocal(self):
        edges = planted_blocks(300, 2, 2, 0.1, random.Random(21))
        g = DirectedGraph.from_edges(edges, nodes=range(300))
        for s, t in g.edges():
            if (s < 150) != (t < 150):
                assert g.has_edge(t, s)

    def test_no_duplicate_edges(self):
        edges = planted_blocks(400, 2, 4, 0.3, random.Random(22))
        assert len(edges) == len(set(edges))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            planted_blocks(5, 3, 2, 0.1, random.Random(0))


class TestBuildProfiles:
    def test_closed_world_follower_counts(self):
        edges = preferential_attachment(100, 2, random.Random(7))
        g = DirectedGraph.from_edges(edges, nodes=range(100))
        profiles = build_profiles(100, edges, random.Random(8))
        for node in range(100):
            assert profiles[node].follower_count == g.in_degree(node)

    def test_recency_order_is_reversed_creation_order(self):
        edges = [(5, 1), (5, 2), (5, 3)]
        profiles = build_profiles(6, edges, random.Random(9))
        assert profiles[5].friends_recent_first == [3, 2, 1]

    def test_language_fraction(self):
        edges = []
        profiles = build_profiles(2000, edges, random.Random(10), language_fraction=0.7)
        share = sum(1 for p in profiles.values() if p.language == "de") / 2000
        assert share == pytest.approx(0.7, abs=0.05)

    def test_follower_noise_perturbs_counts(self):
        edges = preferential_attachment(200, 3, random.Random(11))
        g = DirectedGraph.from_edges(edges, nodes=range(200))
        exact = build_profiles(200, edges, random.Random(12))
        noisy = build_profiles(200, edges, random.Random(12), follower_noise=0.3)
        assert all(exact[n].follower_count == g.in_degree(n) for n in range(200))
        diffs = sum(
            1 for n in range(200) if noisy[n].follower_count != g.in_degree(n)
        )
        assert diffs > 10  # small in-degrees often round back unchanged


class TestGenerateNetwork:
    def test_profiles_consistent_with_graph(self):
        models = ("preferential-attachment", "reciprocal-er", "two-class", "planted-blocks")
        for model in models:
            graph, profiles = generate_network(model, 120, rng_seed=13, m=2, p=0.05)
            assert profiles.keys() == set(graph.nodes)
            for v in graph.nodes:
                assert set(profiles[v].friends_recent_first) == set(graph.successors(v))

    def test_reproducible(self):
        a_graph, a_profiles = generate_network("preferential-attachment", 150, rng_seed=14)
        b_graph, b_profiles = generate_network("preferential-attachment", 150, rng_seed=14)
        assert a_graph.ids == b_graph.ids
        assert list(a_graph.edges()) == list(b_graph.edges())
        assert a_profiles == b_profiles

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            generate_network("small-world", 10, rng_seed=0)


# Each model with every branch of the profile draws in use: follower noise,
# protected accounts and two languages.
GENERATOR_SETTINGS = dict(
    m=3, p=0.04, blocks=3, cross_fraction=0.1, language_fraction=0.7,
    protected_fraction=0.1, follower_noise=0.3,
)

# sha256 of edges.csv and profiles.jsonl that generate_network(model, 150, 21,
# **GENERATOR_SETTINGS) writes: any change here is a change in the generator's
# draws or in what the writers write.
GENERATOR_DIGESTS = {
    "planted-blocks": (
        "c59b3b78fd7d7c45899635161f7d937ece05ef31f61f5ffb6030b1d1f70e37bd",
        "d57b57bf2bc04c3543fdae049912b6f06557ba3d16064c139150c811b1ab1ba1",
    ),
    "preferential-attachment": (
        "d18577bdd7663dc09f0b9ea07d4b67f5f87f82fc1a988b4403f4221fbdadf0cf",
        "933fcbc5b464e21ccdc717d15e265d80a84aa79e1ebc7f1c4320380b7e167c28",
    ),
    "reciprocal-er": (
        "a22ee4fdf475b73d9bf4f12b2728f8786c4e77eae21dcdb941fdc309739f2294",
        "6838351504deff4b56891cdc0adfb468c15996d7e3b8c1efd11556a00865e1ec",
    ),
    "two-class": (
        "618ce710f9f8d3ac47c671715cae88fcd469b670aedf1220597a586b63e29068",
        "d3a973640e8fbebea036a60e73ee925761297e39181978a98b63b2d76b4e4d86",
    ),
}


@pytest.mark.parametrize("model", sorted(GENERATOR_DIGESTS))
def test_generated_files_match_recorded_digests(tmp_path, model):
    graph, profiles = generate_network(model, 150, 21, **GENERATOR_SETTINGS)
    write_edge_list(graph, tmp_path / "edges.csv")
    write_profiles(profiles, tmp_path / "profiles.jsonl")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("edges.csv", "profiles.jsonl")
    )
    assert digests == GENERATOR_DIGESTS[model]
