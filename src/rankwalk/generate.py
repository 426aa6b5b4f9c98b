"""Synthetic ground-truth generators: directed preferential attachment,
reciprocal Erdos-Renyi, and a two-class (influencer-like vs ordinary)
population, plus closed-world profile synthesis."""

from __future__ import annotations

import random
from itertools import chain
from typing import Sequence

import numpy as np

from .graph import DirectedGraph, NodeId, ProfileTable, _csr_rows, _ProfileColumns
from .rng import substream

SECONDS_PER_DAY = 86400.0


def preferential_attachment(n: int, m: int, rng: random.Random) -> list[tuple[NodeId, NodeId]]:
    """Directed preferential attachment: after m edgeless seed nodes, every new
    node follows m distinct existing nodes chosen with probability proportional
    to in-degree + 1. Produces exactly m * (n - m) edges, all newer -> older.
    """
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    edges: list[tuple[NodeId, NodeId]] = []
    # One list entry per unit of attachment weight (in-degree + 1 smoothing).
    weighted: list[NodeId] = list(range(m))
    for new in range(m, n):
        targets: set[NodeId] = set()
        while len(targets) < m:
            targets.add(weighted[rng.randrange(len(weighted))])
        for target in sorted(targets):
            edges.append((new, target))
            weighted.append(target)
        weighted.append(new)
    return edges


def reciprocal_er(n: int, p: float, rng: random.Random) -> list[tuple[NodeId, NodeId]]:
    """Fully reciprocal Erdos-Renyi digraph: each unordered pair appears with
    probability p as two opposite directed edges."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    edges: list[tuple[NodeId, NodeId]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
                edges.append((j, i))
    return edges


def planted_blocks(
    n: int,
    m: int,
    blocks: int,
    cross_fraction: float,
    rng: random.Random,
) -> list[tuple[NodeId, NodeId]]:
    """Community-structured fixture: `blocks` preferential-attachment blocks
    plus sparse reciprocal cross-block links (each node gets one with
    probability cross_fraction)."""
    if blocks < 1 or n < blocks * (m + 1):
        raise ValueError("need at least m + 1 nodes per block")
    if not 0.0 <= cross_fraction <= 1.0:
        raise ValueError("cross_fraction must lie in [0, 1]")
    edges: list[tuple[NodeId, NodeId]] = []
    size = n // blocks
    bounds = [
        (b * size, (b + 1) * size if b < blocks - 1 else n) for b in range(blocks)
    ]
    for lo, hi in bounds:
        for source, target in preferential_attachment(hi - lo, m, rng):
            edges.append((source + lo, target + lo))
    seen: set[tuple[NodeId, NodeId]] = set()  # cross-block pairs; no block edge is one
    for node in range(n):
        if blocks > 1 and rng.random() < cross_fraction:
            block = next(i for i, (lo, hi) in enumerate(bounds) if lo <= node < hi)
            other = rng.randrange(blocks - 1)
            if other >= block:
                other += 1
            lo, hi = bounds[other]
            target = rng.randrange(lo, hi)
            if (node, target) not in seen:
                edges.append((node, target))
                edges.append((target, node))
                seen.add((node, target))
                seen.add((target, node))
    return edges


def two_class(
    n: int,
    p: float,
    factor: float,
    high_fraction: float = 0.01,
    rng: random.Random | None = None,
) -> tuple[list[tuple[NodeId, NodeId]], set[NodeId]]:
    """Two-class population: the first ceil(high_fraction * n) nodes attract
    follows with probability p * factor, the rest with probability p. Expected
    in-degree means differ by the configured factor. Returns (edges, high set).
    """
    if rng is None:
        rng = random.Random(0)
    if n < 2 or p <= 0 or factor < 1 or not 0 < high_fraction < 1:
        raise ValueError("invalid two-class parameters")
    p_high = min(1.0, p * factor)
    n_high = max(1, round(high_fraction * n))
    high = set(range(n_high))
    edges: list[tuple[NodeId, NodeId]] = []
    for source in range(n):
        for target in range(n):
            if target == source:
                continue
            prob = p_high if target in high else p
            if rng.random() < prob:
                edges.append((source, target))
    return edges, high


def build_profiles(
    n: int,
    edges: Sequence[tuple[NodeId, NodeId]],
    rng: random.Random,
    target_language: str = "de",
    language_fraction: float = 1.0,
    other_language: str = "en",
    protected_fraction: float = 0.0,
    follower_noise: float = 0.0,
    now: float = 1_600_000_000.0,
) -> ProfileTable:
    """Closed-world profiles for nodes 0..n-1: follower_count equals the
    ground-truth in-degree (optionally perturbed by a multiplicative noise
    factor), and friends_recent_first is the reversed edge-creation order.

    The edges become two index arrays once; in-degrees and the friend rows
    are read from them. Each node's draws go, in node order, straight into
    the table's column builder, so no per-node list or record is kept.
    """
    for name, fraction in (
        ("language_fraction", language_fraction),
        ("protected_fraction", protected_fraction),
    ):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {fraction}")
    if follower_noise < 0.0:
        raise ValueError(f"follower_noise must be >= 0, got {follower_noise}")
    ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
    sources, targets = ends[0::2], ends[1::2]
    in_degree = np.bincount(targets, minlength=n).tolist()
    # rows of the reversed edges keep input order, so each starts at the newest follow
    offsets, friends = (a.tolist() for a in _csr_rows(sources[::-1], targets[::-1], n))
    columns = _ProfileColumns()
    for node in range(n):
        followers = in_degree[node]
        if follower_noise > 0.0:
            followers = max(0, round(followers * (1.0 + rng.uniform(-follower_noise, follower_noise))))
        language = target_language if rng.random() < language_fraction else other_language
        created_at = now - rng.uniform(30.0, 3650.0) * SECONDS_PER_DAY
        status_count = rng.randint(0, 100 + 10 * in_degree[node])
        last_status_at = None
        if status_count > 0:
            last_status_at = rng.uniform(created_at, now)
        columns.add(
            node, followers, friends[offsets[node] : offsets[node + 1]], language,
            rng.random() < protected_fraction, created_at, status_count, last_status_at,
        )
    return columns.build()


def generate_network(
    model: str,
    n: int,
    rng_seed: int,
    *,
    m: int = 3,
    p: float = 0.05,
    factor: float = 50.0,
    high_fraction: float = 0.01,
    blocks: int = 2,
    cross_fraction: float = 0.02,
    target_language: str = "de",
    language_fraction: float = 1.0,
    protected_fraction: float = 0.0,
    follower_noise: float = 0.0,
) -> tuple[DirectedGraph, ProfileTable]:
    """One-call generator: edges plus consistent profiles for the chosen model.
    The graph is built from the profiles' friend rows, which hold every edge,
    and shares the table's id list and index."""
    edge_rng = substream(rng_seed, f"generate/{model}/edges")
    profile_rng = substream(rng_seed, f"generate/{model}/profiles")
    if model == "preferential-attachment":
        edges = preferential_attachment(n, m, edge_rng)
    elif model == "reciprocal-er":
        edges = reciprocal_er(n, p, edge_rng)
    elif model == "two-class":
        edges, _ = two_class(n, p, factor, high_fraction, edge_rng)
    elif model == "planted-blocks":
        edges = planted_blocks(n, m, blocks, cross_fraction, edge_rng)
    else:
        raise ValueError(f"unknown model {model!r}")
    profiles = build_profiles(
        n,
        edges,
        profile_rng,
        target_language=target_language,
        language_fraction=language_fraction,
        protected_fraction=protected_fraction,
        follower_noise=follower_noise,
    )
    sources = np.repeat(np.arange(n), np.diff(profiles.friend_offsets))
    graph = DirectedGraph(profiles.ids, profiles.index, sources, profiles.friend_ids)
    return graph, profiles
