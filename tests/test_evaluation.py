import math
import random
from collections import Counter

import pytest

from rankwalk.evaluation import (
    CoverageReport,
    SummaryStats,
    activity,
    activity_histogram,
    baseline_sample,
    coverage,
    coverage_report,
    influencer_nodes,
    rank_coverage,
    rank_reach,
    total_reach,
    write_coverage_report_csv,
)
from rankwalk.graph import DirectedGraph, ProfileTable

from conftest import profile_record

DAY = 86400.0

# chi-squared critical value at alpha = 0.01 for 99 degrees of freedom
CHI2_CRIT_99_001 = 134.6416168557892


def profile(node=0, statuses=0, created=0.0, last=None):
    record = profile_record(node, created_at=created, status_count=statuses, last_status_at=last)
    return ProfileTable.from_records([record])[node]


class TestCoverage:
    def test_full_coverage(self):
        assert coverage({1, 2, 3, 4}, {1, 2, 3, 4, 9}) == 100.0

    def test_zero_coverage(self):
        assert coverage({1, 2}, {7, 8}) == 0.0

    def test_empty_friend_set_rejected(self):
        with pytest.raises(ValueError):
            coverage(set(), {1})

    def test_matches_brute_force_intersection(self):
        rng = random.Random(5)
        for _ in range(20):
            friends = set(rng.sample(range(300), 50))
            sample = set(rng.sample(range(300), 200))
            expected = 100.0 * len([f for f in friends if f in sample]) / len(friends)
            assert coverage(friends, sample) == pytest.approx(expected, abs=1e-12)


class TestReach:
    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            rank_reach({1}, {})

    def test_rank_reach_matches_count_and_sort(self):
        rng = random.Random(6)
        test = {a: frozenset(rng.sample(range(50), 8)) for a in range(100, 200)}
        sample_nodes = set(range(30))
        ranked = rank_reach(sample_nodes, test)
        by_node = {
            s: 100.0 * sum(1 for friends in test.values() if s in friends) / len(test)
            for s in sample_nodes
        }
        expected = [
            (i + 1, value)
            for i, (_, value) in enumerate(
                sorted(by_node.items(), key=lambda kv: (-kv[1], kv[0]))
            )
        ]
        assert ranked == expected

    def test_rank_coverage_is_a_permutation_of_values(self):
        rng = random.Random(7)
        test = {a: frozenset(rng.sample(range(40), 5)) for a in range(60)}
        sample_nodes = set(range(20))
        ranked = rank_coverage(test, sample_nodes)
        values = sorted(v for _, v in ranked)
        expected = sorted(coverage(f, sample_nodes) for f in test.values() if len(f) >= 2)
        assert values == expected


class TestTotalReach:
    def test_sample_covers_everything(self):
        test = {1: {5, 6}, 2: {6, 7}}
        assert total_reach({5, 6, 7}, test) == 100.0

    def test_sample_disjoint_from_friends(self):
        test = {1: {5, 6}, 2: {6, 7}}
        assert total_reach({90, 91}, test) == 0.0

    def test_restriction_to_more_than_one_friend(self):
        test = {1: {5}, 2: {6, 7}}
        # account 1 has a single friend and is excluded from the denominator
        assert total_reach({6}, test) == 100.0

    def test_matches_brute_force_membership(self):
        rng = random.Random(8)
        for _ in range(20):
            test = {
                a: frozenset(rng.sample(range(100), rng.randint(1, 10)))
                for a in range(40)
            }
            sample = set(rng.sample(range(100), 30))
            restricted = {a: f for a, f in test.items() if len(f) >= 2}
            expected = (
                100.0
                * sum(1 for f in restricted.values() if any(x in sample for x in f))
                / len(restricted)
            )
            assert total_reach(sample, test) == pytest.approx(expected, abs=1e-12)

    def test_empty_restriction_rejected(self):
        with pytest.raises(ValueError):
            total_reach({1}, {1: {2}})


class TestActivity:
    def test_one_status_per_day(self):
        p = profile(statuses=100, created=0.0)
        assert activity(p, 100 * DAY) == pytest.approx(1.0)

    def test_zero_statuses(self):
        assert activity(profile(statuses=0), 50 * DAY) == 0.0

    def test_age_floored_at_one_day(self):
        p = profile(statuses=5, created=0.0)
        assert activity(p, 12 * 3600.0) == pytest.approx(5.0)

    def test_as_of_before_creation_rejected(self):
        with pytest.raises(ValueError):
            activity(profile(created=100.0), 50.0)


class TestBaselineSample:
    def test_whole_population(self):
        assert baseline_sample([1, 2, 3], 3, 0) == {1, 2, 3}

    def test_empty_draw(self):
        assert baseline_sample([1, 2, 3], 0, 0) == set()

    def test_oversized_draw_rejected(self):
        with pytest.raises(ValueError):
            baseline_sample([1, 2], 3, 0)

    def test_reproducible(self):
        population = list(range(100))
        assert baseline_sample(population, 10, 7) == baseline_sample(population, 10, 7)

    def test_uniformity_not_rejected_at_alpha_001(self):
        population = list(range(100))
        counts = Counter()
        for i in range(10000):
            counts.update(baseline_sample(population, 10, i))
        expected = 10000 * 10 / 100
        statistic = sum((counts[v] - expected) ** 2 / expected for v in population)
        assert statistic < CHI2_CRIT_99_001


def brute_stats(values):
    values = sorted(values)
    n = len(values)
    mean = sum(values) / n

    def quantile(p):
        pos = (n - 1) * p
        lo = math.floor(pos)
        frac = pos - lo
        if lo + 1 < n:
            return values[lo] + frac * (values[lo + 1] - values[lo])
        return values[lo]

    return {
        "mean": mean,
        "std": math.sqrt(sum((v - mean) ** 2 for v in values) / n),
        "min": values[0],
        "q25": quantile(0.25),
        "median": quantile(0.5),
        "q75": quantile(0.75),
        "max": values[-1],
    }


class TestCoverageReport:
    def fixture(self, seed=0):
        rng = random.Random(seed)
        test = {
            a: frozenset(rng.sample(range(200), rng.randint(2, 20)))
            for a in range(1000, 1040)
        }
        influencer = set(rng.sample(range(200), 60))
        baseline = set(rng.sample(range(200), 60))
        return test, influencer, baseline

    def test_all_friends_in_influencer(self):
        test = {1: frozenset({5, 6}), 2: frozenset({6, 7})}
        report = coverage_report(test, {5, 6, 7}, {90, 91, 92})
        assert report.pct_in_influencer.mean == 100.0
        assert report.pct_in_influencer.median == 100.0
        assert report.pct_in_influencer.std == 0.0

    def test_statistics_match_brute_force(self):
        test, influencer, baseline = self.fixture(3)
        report = coverage_report(test, influencer, baseline)
        values = [coverage(f, influencer) for f in test.values() if len(f) >= 2]
        expected = brute_stats(values)
        got = report.pct_in_influencer
        for name in expected:
            assert getattr(got, name) == pytest.approx(expected[name], abs=1e-9), name

    def test_mismatched_baseline_size_rejected(self):
        test, influencer, baseline = self.fixture(4)
        with pytest.raises(ValueError, match="size"):
            coverage_report(test, influencer, set(list(baseline)[:10]))

    def test_exclusion_rule_and_include_all(self):
        test = {
            1: frozenset({5}),
            2: frozenset({5, 6}),
            3: frozenset({6, 7, 8}),
        }
        report = coverage_report(test, {5, 6}, {7, 8})
        assert report.n == 2
        loose = coverage_report(test, {5, 6}, {7, 8}, min_friends=1)
        assert loose.n == 3

    def test_csv_layout_matches_summary_table(self, tmp_path):
        test, influencer, baseline = self.fixture(5)
        report = coverage_report(test, influencer, baseline)
        path = tmp_path / "report.csv"
        write_coverage_report_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "statistic,friend_count,pct_in_influencer,pct_in_baseline"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["n", "mean", "std", "min", "25%", "50%", "75%", "max"]
        # percentages carry one decimal place
        assert lines[2].split(",")[2] == f"{report.pct_in_influencer.mean:.1f}"

    def test_scale_free_under_fixture_duplication(self):
        test, influencer, baseline = self.fixture(6)
        report = coverage_report(test, influencer, baseline)
        offset = 10000
        test2 = dict(test)
        for a, friends in test.items():
            test2[a + offset] = frozenset(f + offset for f in friends)
        influencer2 = influencer | {v + offset for v in influencer}
        baseline2 = baseline | {v + offset for v in baseline}
        report2 = coverage_report(test2, influencer2, baseline2)
        assert report2.pct_in_influencer.mean == pytest.approx(
            report.pct_in_influencer.mean, abs=1e-9
        )
        assert report2.pct_in_influencer.median == pytest.approx(
            report.pct_in_influencer.median, abs=1e-9
        )


class TestInfluencerNodes:
    def test_excludes_leaf_seeds(self):
        g = DirectedGraph.from_edges([(1, 2), (2, 3)], nodes=[9])  # 9: a seed without an edge
        assert influencer_nodes(g) == {2, 3}


class TestActivityHistogram:
    def test_zeros_get_their_own_row(self):
        rows = activity_histogram([0.0, 0.0, 1.0, 2.0, 4.0], bins=2)
        assert rows[0] == (0.0, 0.0, 2)
        assert sum(count for _, _, count in rows) == 5

    def test_all_values_binned(self):
        rng = random.Random(9)
        values = [rng.expovariate(1.0) for _ in range(500)]
        rows = activity_histogram(values, bins=20)
        assert sum(count for _, _, count in rows) == 500

