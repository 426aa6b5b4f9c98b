"""Sample-quality evaluation: coverage, reach, activity, baseline comparison,
and summary-table statistics."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .graph import DirectedGraph, NodeId, ProfileRecord

SECONDS_PER_DAY = 86400.0

STATISTIC_NAMES = ("mean", "std", "min", "25%", "50%", "75%", "max")


def influencer_nodes(sample: DirectedGraph) -> set[NodeId]:
    """Sample nodes with in-degree >= 1; leaf seeds are excluded."""
    return set(compress(sample.ids, (sample.in_degrees >= 1).tolist()))


def coverage(friends_of_a: AbstractSet[NodeId], sample_nodes: AbstractSet[NodeId]) -> float:
    """Percentage of an account's friends present in the sample."""
    if not friends_of_a:
        raise ValueError("coverage requires a non-empty friend set")
    return 100.0 * len(friends_of_a & sample_nodes) / len(friends_of_a)


def reach_by_node(
    sample_nodes: AbstractSet[NodeId], test: Mapping[NodeId, AbstractSet[NodeId]]
) -> dict[NodeId, float]:
    """Each sample node's reach: the percentage of test accounts that follow
    it (have it among their friends)."""
    if not test:
        raise ValueError("reach requires a non-empty test sample")
    counts: dict[NodeId, int] = {s: 0 for s in sample_nodes}
    for friends in test.values():
        for friend in friends:
            if friend in counts:
                counts[friend] += 1
    n = len(test)
    return {s: 100.0 * c / n for s, c in counts.items()}


def rank_reach(
    sample_nodes: AbstractSet[NodeId], test: Mapping[NodeId, AbstractSet[NodeId]]
) -> list[tuple[int, float]]:
    """(rank, reach) pairs over all sample nodes, descending, ties by lowest id."""
    per_node = reach_by_node(sample_nodes, test)
    ordered = sorted(per_node.items(), key=lambda item: (-item[1], item[0]))
    return [(rank, value) for rank, (_, value) in enumerate(ordered, start=1)]


def rank_coverage(
    test: Mapping[NodeId, AbstractSet[NodeId]],
    sample_nodes: AbstractSet[NodeId],
    min_friends: int = 2,
) -> list[tuple[int, float]]:
    """(rank, coverage) pairs over test accounts with >= min_friends friends."""
    values = sorted(
        (coverage(friends, sample_nodes) for friends in test.values() if len(friends) >= min_friends),
        reverse=True,
    )
    return [(rank, value) for rank, value in enumerate(values, start=1)]


def total_reach(
    sample_nodes: AbstractSet[NodeId],
    test: Mapping[NodeId, AbstractSet[NodeId]],
    min_friends: int = 2,
) -> float:
    """Percentage of test accounts (with more than one friend) that have at
    least one friend in the sample."""
    restricted = {a: friends for a, friends in test.items() if len(friends) >= min_friends}
    if not restricted:
        raise ValueError("no test accounts left after the friend-count restriction")
    reached = sum(1 for friends in restricted.values() if friends & sample_nodes)
    return 100.0 * reached / len(restricted)


def activity(profile: ProfileRecord, as_of: float) -> float:
    """Statuses per day since account creation, floored at one day of age."""
    if not math.isfinite(as_of):
        raise ValueError(f"as_of must be finite, got {as_of}")
    if as_of < profile.created_at:
        raise ValueError(f"as_of predates creation of account {profile.node}")
    days = max(1.0, (as_of - profile.created_at) / SECONDS_PER_DAY)
    return profile.status_count / days


def baseline_sample(population: Sequence[NodeId], n: int, rng_seed: int) -> set[NodeId]:
    """Uniform draw without replacement, reproducible under rng_seed."""
    if n > len(population):
        raise ValueError(f"cannot draw {n} from a population of {len(population)}")
    return set(random.Random(rng_seed).sample(list(population), n))


@dataclass(frozen=True)
class SummaryStats:
    """Seven-number summary: mean, population std, min, quartiles, max."""

    mean: float
    std: float
    min: float
    q25: float
    median: float
    q75: float
    max: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SummaryStats":
        if not values:
            raise ValueError("cannot summarise an empty sequence")
        arr = np.asarray(values, dtype=np.float64)
        q25, median, q75 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=0)),
            min=float(arr.min()),
            q25=float(q25),
            median=float(median),
            q75=float(q75),
            max=float(arr.max()),
        )

    def as_row(self) -> tuple[float, ...]:
        return (self.mean, self.std, self.min, self.q25, self.median, self.q75, self.max)


@dataclass(frozen=True)
class CoverageReport:
    """Summary-table rows for friend counts and the two coverage columns."""

    n: int
    friend_count: SummaryStats
    pct_in_influencer: SummaryStats
    pct_in_baseline: SummaryStats


def coverage_report(
    test: Mapping[NodeId, AbstractSet[NodeId]],
    influencer: AbstractSet[NodeId],
    baseline: AbstractSet[NodeId],
    min_friends: int = 2,
) -> CoverageReport:
    """Coverage statistics of the influencer sample versus a size-matched baseline.

    Test accounts with fewer than min_friends friends are excluded; 1 keeps
    every account with a friend (0-friend accounts have no defined coverage).
    """
    if len(influencer) != len(baseline):
        raise ValueError(
            f"baseline size {len(baseline)} must equal influencer size {len(influencer)}"
        )
    kept = {a: friends for a, friends in test.items() if len(friends) >= min_friends}
    if not kept:
        raise ValueError("no test accounts left after exclusions")
    friend_counts = []
    pct_influencer = []
    pct_baseline = []
    for friends in kept.values():
        friend_counts.append(float(len(friends)))
        pct_influencer.append(coverage(friends, influencer))
        pct_baseline.append(coverage(friends, baseline))
    return CoverageReport(
        n=len(kept),
        friend_count=SummaryStats.from_values(friend_counts),
        pct_in_influencer=SummaryStats.from_values(pct_influencer),
        pct_in_baseline=SummaryStats.from_values(pct_baseline),
    )


def write_coverage_report_csv(report: CoverageReport, path) -> None:
    """Summary-table layout: one row per statistic, percentages to one decimal."""
    columns = (report.friend_count, report.pct_in_influencer, report.pct_in_baseline)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("statistic,friend_count,pct_in_influencer,pct_in_baseline\n")
        fh.write(f"n,{report.n},{report.n},{report.n}\n")
        for i, name in enumerate(STATISTIC_NAMES):
            row = ",".join(f"{col.as_row()[i]:.1f}" for col in columns)
            fh.write(f"{name},{row}\n")


def write_rank_csv(rows: Iterable[tuple[int, float]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,value\n")
        for rank, value in rows:
            fh.write(f"{rank},{value}\n")


def activity_histogram(
    values: Sequence[float], bins: int = 30
) -> list[tuple[float, float, int]]:
    """Log-spaced histogram rows (lo, hi, count); zeros get a leading (0, 0) row."""
    if bins < 1:
        raise ValueError("bins must be positive")
    zeros = sum(1 for v in values if v == 0.0)
    positive = sorted(v for v in values if v > 0.0)
    rows: list[tuple[float, float, int]] = []
    if zeros:
        rows.append((0.0, 0.0, zeros))
    if positive:
        edges = np.geomspace(positive[0], positive[-1], bins + 1)
        edges[-1] = np.nextafter(edges[-1], np.inf)  # include the max value
        counts, _ = np.histogram(positive, bins=edges)
        rows.extend(
            (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
        )
    return rows


def write_histogram_csv(rows: Iterable[tuple[float, float, int]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in rows:
            fh.write(f"{lo},{hi},{count}\n")
