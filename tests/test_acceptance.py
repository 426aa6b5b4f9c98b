"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with -s to see them inline)."""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from statistics import median

import pytest

from rankwalk.cli import main as cli_main
from rankwalk.communities import community_sizes, load_assignment
from rankwalk.evaluation import (
    baseline_sample,
    coverage,
    coverage_report,
    influencer_nodes,
    rank_reach,
    reach_by_node,
    total_reach,
)
from rankwalk.generate import build_profiles, preferential_attachment, reciprocal_er, two_class
from rankwalk.graph import (
    DirectedGraph, UndirectedGraph, k_core, pagerank, read_edge_list, read_profiles,
)
from rankwalk.keywords import Doc, chi_squared_keyness, write_docs_jsonl
from rankwalk.oracle import assert_budget_safety, build_simulated_oracle
from rankwalk.reference import rank_degree
from rankwalk.sampler import SamplerConfig, SeedPool, read_sample_csv, run_sample

from conftest import random_digraph, walked_edges
from test_evaluation import brute_stats
from test_graph import brute_force_peel


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def reciprocal_fixture(seed, n, p):
    rng = random.Random(seed)
    edges = reciprocal_er(n, p, rng)
    graph = DirectedGraph.from_edges(edges, nodes=range(n))
    profiles = build_profiles(n, edges, random.Random(seed + 1), language_fraction=1.0)
    return graph, edges, profiles


def test_acceptance_1_reference_equivalence():
    """Single adapted walker with the API adaptations switched off burns the
    identical edge sequence as the original method on reciprocal graphs."""
    with criterion(1, "reference equivalence"):
        start = time.time()
        cases = 0
        trial = 0
        while cases < 100:
            trial += 1
            rng = random.Random(5000 + trial)
            n = rng.randint(4, 200)
            p = rng.uniform(0.02, 0.2)
            graph, edges, profiles = reciprocal_fixture(5000 + trial, n, p)
            directed_count = graph.num_edges()
            if directed_count == 0:
                continue
            cases += 1
            oracle = build_simulated_oracle(
                graph, profiles, rate_limits_enabled=False, page_size=10**6
            )
            pool_ids = sorted(graph.nodes)
            sampler_pool = SeedPool(pool_ids, random.Random(f"bridge/{trial}"))
            reference_pool = SeedPool(pool_ids, random.Random(f"bridge/{trial}"))
            config = SamplerConfig(
                language_filter_enabled=False,
                walker_count=1,
                max_sample_edges=directed_count,
                max_steps=200 * directed_count + 1000,
                add_symmetric_edge=True,
                original_rank_degree=True,
            )
            _, stats = run_sample(config, oracle, sampler_pool)
            first_seed = reference_pool.draw()
            undirected = UndirectedGraph.from_directed(graph)
            reference = rank_degree(
                undirected,
                [first_seed],
                directed_count,
                rho=1.0,
                collapse=False,
                reseed_on_leaf=False,
                seed_source=reference_pool.draw,
            )
            walked = walked_edges(oracle.profiles, stats.walk_log)
            assert walked == reference.walked, f"trial {trial}: n={n} p={p:.3f}"
        elapsed = time.time() - start
        assert cases == 100
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_acceptance_2_rate_budget_safety():
    """Replaying the call log of a 12-key, 200-walker run shows <= 15 friends
    calls per key in every sliding 900 s window."""
    with criterion(2, "rate-budget safety"):
        start = time.time()
        n = 10000
        edges = preferential_attachment(n, 3, random.Random(77))
        graph = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(78), language_fraction=1.0)
        oracle = build_simulated_oracle(
            graph,
            profiles,
            key_count=12,
            friends_calls_per_window=15,
            friends_window_seconds=900.0,
        )
        pool = SeedPool(sorted(graph.nodes), 11)
        config = SamplerConfig(
            language_filter_enabled=False,
            walker_count=200,
            max_sample_edges=2500,
            max_steps=10**6,
        )
        _, stats = run_sample(config, oracle, pool)
        assert stats.sample_edges >= 2500
        assert stats.simulated_seconds > 0
        assert_budget_safety(oracle.call_log, "friends", 15, 900.0)
        assert_budget_safety(oracle.call_log, "profiles", 900, 900.0)
        assert time.time() - start < 60.0


def max_records_per_window(call_log, page_records, window):
    friends_calls = sorted(r.t for r in call_log if r.endpoint == "friends")
    best = 0
    lo = 0
    for hi, t in enumerate(friends_calls):
        while friends_calls[lo] <= t - window:
            lo += 1
        best = max(best, (hi - lo + 1) * page_records)
    return best


def test_acceptance_3_throughput_arithmetic():
    """A saturating run retrieves at most 75,000 friend records per key per
    900 simulated seconds, and reaches that ceiling; 12 keys scale it by 12."""
    with criterion(3, "throughput ceiling"):
        for key_count in (1, 12):
            graph = DirectedGraph.from_edges(
                [(source, target) for source in range(4) for target in range(10, 5600)]
            )
            from conftest import make_profiles

            profiles = make_profiles(graph)
            oracle = build_simulated_oracle(
                graph, profiles, key_count=key_count, page_size=5000
            )
            for i in range(60 * key_count):
                oracle.get_friends(i % 4)
            ceiling = key_count * 15 * 5000
            observed = max_records_per_window(oracle.call_log, 5000, 900.0)
            assert observed <= ceiling
            assert observed >= 0.99 * ceiling
            assert_budget_safety(oracle.call_log, "friends", 15, 900.0)


def test_acceptance_4_influence_capture():
    """After burning 20% of a 10,000-node preferential-attachment graph the
    sample holds at least 80% of the top-100 in-degree nodes, for 10 seeds."""
    with criterion(4, "influence capture"):
        start = time.time()
        for seed in range(10):
            n = 10000
            edges = preferential_attachment(n, 3, random.Random(9000 + seed))
            graph = DirectedGraph.from_edges(edges, nodes=range(n))
            profiles = build_profiles(
                n, edges, random.Random(9100 + seed), language_fraction=1.0
            )
            oracle = build_simulated_oracle(graph, profiles, rate_limits_enabled=False)
            pool = SeedPool(sorted(graph.nodes), seed)
            budget = int(0.2 * graph.num_edges())
            config = SamplerConfig(
                language_filter_enabled=False,
                walker_count=50,
                max_sample_edges=budget,
                max_steps=10**7,
            )
            sample, stats = run_sample(config, oracle, pool)
            # no reciprocal pairs in this model, so sample edges == burned edges
            assert stats.symmetric_edges == 0
            assert len(stats.walk_log) == stats.sample_edges
            top100 = sorted(graph.nodes, key=lambda v: (-graph.in_degree(v), v))[:100]
            captured = sum(1 for v in top100 if v in sample.graph.nodes)
            assert captured >= 80, f"seed {seed}: only {captured}/100 captured"
        assert time.time() - start < 120.0


def test_acceptance_5_evaluation_oracle_equivalence():
    """coverage, reach, total_reach, and the report statistics equal
    independent brute-force recomputation to 1e-9 on 50 random fixtures."""
    with criterion(5, "evaluation oracle equivalence"):
        for seed in range(50):
            rng = random.Random(3000 + seed)
            universe = range(300)
            test = {
                a: frozenset(rng.sample(universe, rng.randint(1, 25)))
                for a in range(1000, 1000 + rng.randint(10, 60))
            }
            size = rng.randint(10, 80)
            influencer = set(rng.sample(universe, size))
            baseline = set(rng.sample(universe, size))

            for friends in test.values():
                expected = 100.0 * len(friends & influencer) / len(friends)
                assert abs(coverage(friends, influencer) - expected) <= 1e-9

            probe = rng.choice(sorted(influencer))
            expected_reach = (
                100.0 * sum(1 for f in test.values() if probe in f) / len(test)
            )
            assert abs(reach_by_node(influencer, test)[probe] - expected_reach) <= 1e-9

            restricted = {a: f for a, f in test.items() if len(f) >= 2}
            if restricted:
                expected_total = (
                    100.0
                    * sum(1 for f in restricted.values() if f & influencer)
                    / len(restricted)
                )
                assert abs(total_reach(influencer, test) - expected_total) <= 1e-9

                report = coverage_report(test, influencer, baseline)
                assert report.n == len(restricted)
                for column, values in (
                    (report.friend_count, [float(len(f)) for f in restricted.values()]),
                    (
                        report.pct_in_influencer,
                        [coverage(f, influencer) for f in restricted.values()],
                    ),
                    (
                        report.pct_in_baseline,
                        [coverage(f, baseline) for f in restricted.values()],
                    ),
                ):
                    expected_stats = brute_stats(values)
                    for name, value in expected_stats.items():
                        assert abs(getattr(column, name) - value) <= 1e-9, name


def test_acceptance_6_two_class_separation():
    """On a planted two-class population the influencer sample's median
    coverage beats the baseline's by at least 10x and its first-ranked node
    outreaches the baseline's."""
    with criterion(6, "two-class separation"):
        # fixture seeded so the random baseline stays clear of the planted
        # high-in-degree class (otherwise first-rank reach would tie)
        fixture_seed = 4
        n, p, factor, high_fraction = 2500, 0.004, 100.0, 0.01
        edges, high = two_class(n, p, factor, high_fraction, random.Random(100 + fixture_seed))
        graph = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(
            n, edges, random.Random(200 + fixture_seed), language_fraction=1.0
        )
        oracle = build_simulated_oracle(graph, profiles, rate_limits_enabled=False)
        pool = SeedPool(sorted(graph.nodes), fixture_seed)
        config = SamplerConfig(
            language_filter_enabled=False,
            walker_count=10,
            max_sample_edges=150,
            max_steps=10**6,
        )
        sample, _ = run_sample(config, oracle, pool)
        influencer = influencer_nodes(sample.graph)
        assert influencer
        baseline = baseline_sample(sorted(graph.nodes), len(influencer), 777 + fixture_seed)
        test_ids = baseline_sample(sorted(graph.nodes), 300, 999 + fixture_seed)
        test = {
            a: frozenset(graph.successors(a))
            for a in test_ids
            if len(graph.successors(a)) >= 2
        }
        coverage_influencer = [coverage(f, influencer) for f in test.values()]
        coverage_baseline = [coverage(f, baseline) for f in test.values()]
        median_influencer = median(coverage_influencer)
        median_baseline = median(coverage_baseline)
        assert median_influencer > 0
        assert median_influencer >= 10.0 * median_baseline, (
            f"{median_influencer:.2f} vs {median_baseline:.2f}"
        )
        first_influencer = rank_reach(influencer, test)[0][1]
        first_baseline = rank_reach(baseline, test)[0][1]
        assert first_influencer > first_baseline


def test_acceptance_7_chi_squared_correctness():
    """chi-squared keyness equals direct 2x2 evaluation on 1,000 random
    tables; zero iff ad = bc; exact integer-scaling for m <= 100."""
    with criterion(7, "chi-squared correctness"):
        rng = random.Random(424)
        for _ in range(1000):
            a, c = rng.randint(0, 50), rng.randint(0, 50)
            b, d = rng.randint(1, 5000), rng.randint(1, 5000)
            exact = Fraction(
                (a + b + c + d) * (a * d - b * c) ** 2,
                (a + b) * (c + d) * (a + c) * (b + d),
            ) if (a + c) and (b + d) else Fraction(0)
            got = chi_squared_keyness(a, b, c, d)
            assert abs(got - float(exact)) <= 1e-9
            if (a + c) and (b + d):
                assert (got == 0.0) == (a * d == b * c)
            m = rng.randint(1, 100)
            scaled = chi_squared_keyness(m * a, m * b, m * c, m * d)
            assert scaled == float(m * exact), f"scaling broke for m={m}"
        # proportional tables sit exactly on independence and must score zero
        for k in range(1, 21):
            for j in (1, 3, 10):
                assert chi_squared_keyness(2 * k, 37 * k, 2 * j, 37 * j) == 0.0


def test_acceptance_8_kcore_pagerank_oracles():
    """k_core equals brute-force peeling on 100 random graphs; PageRank mass
    sums to one and is uniform on cycles."""
    with criterion(8, "k-core / PageRank oracles"):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(5, 60)
            graph = random_digraph(n, rng.uniform(0.02, 0.2), seed + 1)
            k = rng.randint(1, 5)
            core = k_core(graph, k)
            expected = brute_force_peel(graph, k)
            assert core.nodes == expected.nodes
            assert set(core.edges()) == set(expected.edges())

        for seed in range(10):
            graph = random_digraph(40, 0.1, 600 + seed)
            result = pagerank(graph)
            assert abs(sum(result.scores.values()) - 1.0) <= 1e-9

        for length in (3, 4, 7, 25):
            cycle = DirectedGraph.from_edges(
                [(i, (i + 1) % length) for i in range(length)]
            )
            scores = pagerank(cycle).scores
            for value in scores.values():
                assert abs(value - 1.0 / length) <= 1e-9


def run_pipeline(out_dir, seed):
    d = str(out_dir)
    assert cli_main(
        [
            "--out-dir", d, "--seed", str(seed),
            "generate", "--model", "reciprocal-er", "--nodes", "120", "--p", "0.08",
        ]
    ) == 0
    assert cli_main(
        [
            "--out-dir", d, "--seed", str(seed),
            "sample",
            "--profiles", f"{d}/profiles.jsonl",
            "--max-sample-edges", "200",
            "--walker-count", "6",
        ]
    ) == 0
    assert cli_main(
        [
            "--out-dir", d, "--seed", str(seed),
            "evaluate",
            "--sample", f"{d}/sample.csv",
            "--profiles", f"{d}/profiles.jsonl",
            "--test-size", "50",
        ]
    ) == 0
    assert cli_main(
        [
            "--out-dir", d, "--seed", str(seed),
            "communities", "--graph", f"{d}/sample.csv", "--min-size", "2",
        ]
    ) == 0


def test_acceptance_9_determinism(tmp_path):
    """Any command run twice with identical config and seed produces
    byte-identical outputs."""
    with criterion(9, "determinism"):
        dirs = []
        for run_index in range(2):
            out = tmp_path / f"run{run_index}"
            out.mkdir()
            run_pipeline(out, seed=12345)
            dirs.append(out)
        produced = sorted(p.name for p in dirs[0].iterdir())
        assert produced == sorted(p.name for p in dirs[1].iterdir())
        assert produced  # the pipeline wrote something
        for name in produced:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_acceptance_10_end_to_end(tmp_path):
    """generate -> sample -> in-degree filter -> 3-core -> communities (>100)
    -> keywords (top-50, 5%) on a 5,000-node fixture, all formats parsing back."""
    with criterion(10, "end-to-end pipeline"):
        start = time.time()
        d = str(tmp_path)
        assert cli_main(
            [
                "--out-dir", d, "--seed", "42",
                "generate", "--model", "planted-blocks",
                "--nodes", "5000", "--m", "3", "--blocks", "3",
            ]
        ) == 0
        graph = read_edge_list(tmp_path / "edges.csv")
        profiles = read_profiles(tmp_path / "profiles.jsonl")
        assert graph.num_nodes() == 5000
        assert set(profiles) == graph.nodes

        assert cli_main(
            [
                "--out-dir", d, "--seed", "7",
                "sample",
                "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "8000",
                "--walker-count", "100",
                "--no-language-filter",
            ]
        ) == 0
        sample_graph, _ = read_sample_csv(tmp_path / "sample.csv")
        assert sample_graph.num_edges() >= 8000
        for s, t in sample_graph.edges():
            assert graph.has_edge(s, t)
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["sample_edges"] == sample_graph.num_edges()
        growth = (tmp_path / "growth.csv").read_text().strip().split("\n")
        assert growth[0] == "simulated_seconds,edges,nodes"
        call_log_lines = (tmp_path / "call_log.jsonl").read_text().strip().split("\n")
        first_call = json.loads(call_log_lines[0])
        assert set(first_call) == {"t", "key", "endpoint", "nodes", "calls_remaining"}

        assert cli_main(
            [
                "--out-dir", d,
                "kcore", "--graph", f"{d}/sample.csv", "--k", "3",
                "--min-in-degree", "1", "--out", "core.csv",
            ]
        ) == 0
        core = read_edge_list(tmp_path / "core.csv")
        assert core.num_nodes() > 100
        for node in core.nodes:
            assert core.total_degree(node) >= 3

        assert cli_main(
            [
                "--out-dir", d, "--seed", "5",
                "communities", "--graph", f"{d}/core.csv", "--min-size", "101",
            ]
        ) == 0
        assignment = load_assignment(tmp_path / "assignment.csv", core)
        sizes = community_sizes(assignment)
        meta_lines = (tmp_path / "community_graph.csv").read_text().strip().split("\n")
        assert meta_lines[0] == "source_community,target_community,weight"
        large = {c for c, size in sizes.items() if size > 100}
        assert large, "expected at least one community with more than 100 accounts"
        for line in meta_lines[1:]:
            c1, c2, _w = line.split(",")
            assert int(c1) in large and int(c2) in large

        # synthetic tweets: a planted token per community plus shared chatter
        rng = random.Random(99)
        docs = []
        for node, community in sorted(assignment.items()):
            for i in range(3):
                docs.append(
                    Doc(
                        node,
                        1000.0 + rng.random() * 100,
                        f"heute thema{community} #topic{community} und mehr e{i}",
                    )
                )
        write_docs_jsonl(docs, tmp_path / "docs.jsonl")
        (tmp_path / "stopwords.txt").write_text("und\nmehr\nheute\n")
        assert cli_main(
            [
                "--out-dir", d,
                "keywords",
                "--docs", f"{d}/docs.jsonl",
                "--assignment", f"{d}/assignment.csv",
                "--stopwords", f"{d}/stopwords.txt",
                "--min-size", "101",
                "--top-n", "50",
                "--min-user-frac", "0.05",
                "--per-node-cap", "200",
            ]
        ) == 0
        keyword_lines = (tmp_path / "keywords.csv").read_text().strip().split("\n")
        assert keyword_lines[0] == "community,rank,token,chi2,user_fraction"
        per_community = Counter()
        top_token = {}
        for line in keyword_lines[1:]:
            community, rank, token, chi2, user_fraction = line.split(",")
            assert int(community) in large
            per_community[int(community)] += 1
            if int(rank) == 1:
                top_token[int(community)] = token
            assert float(user_fraction) >= 0.05
            assert float(chi2) >= 0.0
        assert all(count <= 50 for count in per_community.values())
        assert len(per_community) >= 2
        for community, token in top_token.items():
            assert token in (f"thema{community}", f"#topic{community}")

        elapsed = time.time() - start
        assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
