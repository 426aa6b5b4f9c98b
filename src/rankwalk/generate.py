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
OTHER_LANGUAGE = "en"  # build_profiles: the language of an account not given target_language
NOW = 1_600_000_000.0  # build_profiles: the present, before which every account is created


def _check_blocks(nodes: int, m: int, blocks: int) -> None:
    """The ranges of m and nodes for `blocks` preferential-attachment blocks,
    each of at least m + 1 nodes."""
    if not m >= 1:
        raise ValueError(f"m must be >= 1, got {m}")
    least = blocks * (m + 1)
    if not nodes >= least:
        raise ValueError(f"nodes must be >= {least} (m + 1 per block), got {nodes}")


def preferential_attachment(nodes: int, m: int, rng: random.Random) -> list[tuple[NodeId, NodeId]]:
    """Directed preferential attachment: after m edgeless seed nodes, every new
    node follows m distinct existing nodes chosen with probability proportional
    to in-degree + 1. Produces exactly m * (nodes - m) edges, all newer -> older.
    The graph is one block, so nodes must be at least m + 1.
    """
    _check_blocks(nodes, m, 1)
    edges: list[tuple[NodeId, NodeId]] = []
    # One list entry per unit of attachment weight (in-degree + 1 smoothing).
    weighted: list[NodeId] = list(range(m))
    for new in range(m, nodes):
        targets: set[NodeId] = set()
        while len(targets) < m:
            targets.add(weighted[rng.randrange(len(weighted))])
        for target in sorted(targets):
            edges.append((new, target))
            weighted.append(target)
        weighted.append(new)
    return edges


def reciprocal_er(nodes: int, p: float, rng: random.Random) -> list[tuple[NodeId, NodeId]]:
    """Fully reciprocal Erdos-Renyi digraph: each unordered pair appears with
    probability p as two opposite directed edges."""
    if not nodes >= 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    edges: list[tuple[NodeId, NodeId]] = []
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if rng.random() < p:
                edges.append((i, j))
                edges.append((j, i))
    return edges


def planted_blocks(
    nodes: int,
    m: int,
    blocks: int,
    cross_fraction: float,
    rng: random.Random,
) -> list[tuple[NodeId, NodeId]]:
    """Community-structured fixture: `blocks` preferential-attachment blocks
    plus sparse reciprocal cross-block links (each node gets one with
    probability cross_fraction)."""
    if not blocks >= 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    _check_blocks(nodes, m, blocks)
    if not 0.0 <= cross_fraction <= 1.0:
        raise ValueError(f"cross_fraction must lie in [0, 1], got {cross_fraction}")
    edges: list[tuple[NodeId, NodeId]] = []
    size = nodes // blocks
    bounds = [
        (b * size, (b + 1) * size if b < blocks - 1 else nodes) for b in range(blocks)
    ]
    for lo, hi in bounds:
        for source, target in preferential_attachment(hi - lo, m, rng):
            edges.append((source + lo, target + lo))
    seen: set[tuple[NodeId, NodeId]] = set()  # cross-block pairs; no block edge is one
    for node in range(nodes):
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
    nodes: int,
    p: float,
    factor: float,
    high_fraction: float,
    rng: random.Random,
) -> tuple[list[tuple[NodeId, NodeId]], set[NodeId]]:
    """Two-class population: the first round(high_fraction * nodes) nodes (at
    least one) attract follows with probability p * factor, the rest with
    probability p. Expected in-degree means differ by the configured factor.
    Returns (edges, high set).
    """
    if not nodes >= 2:
        raise ValueError(f"nodes must be >= 2, got {nodes}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not factor >= 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if not 0.0 < high_fraction < 1.0:
        raise ValueError(f"high_fraction must lie in (0, 1), got {high_fraction}")
    p_high = min(1.0, p * factor)
    n_high = max(1, round(high_fraction * nodes))
    high = set(range(n_high))
    edges: list[tuple[NodeId, NodeId]] = []
    for source in range(nodes):
        for target in range(nodes):
            if target == source:
                continue
            prob = p_high if target in high else p
            if rng.random() < prob:
                edges.append((source, target))
    return edges, high


def build_profiles(
    nodes: int,
    edges: Sequence[tuple[NodeId, NodeId]],
    rng: random.Random,
    target_language: str = "de",
    language_fraction: float = 1.0,
    protected_fraction: float = 0.0,
    follower_noise: float = 0.0,
) -> ProfileTable:
    """Closed-world profiles for nodes 0..nodes-1: follower_count equals the
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
    if not follower_noise >= 0.0:
        raise ValueError(f"follower_noise must be >= 0, got {follower_noise}")
    ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
    sources, targets = ends[0::2], ends[1::2]
    in_degree = np.bincount(targets, minlength=nodes).tolist()
    # rows of the reversed edges keep input order, so each starts at the newest follow
    offsets, friends = (a.tolist() for a in _csr_rows(sources[::-1], targets[::-1], nodes))
    columns = _ProfileColumns()
    for node in range(nodes):
        followers = in_degree[node]
        if follower_noise > 0.0:
            followers = max(0, round(followers * (1.0 + rng.uniform(-follower_noise, follower_noise))))
        language = target_language if rng.random() < language_fraction else OTHER_LANGUAGE
        created_at = NOW - rng.uniform(30.0, 3650.0) * SECONDS_PER_DAY
        status_count = rng.randint(0, 100 + 10 * in_degree[node])
        last_status_at = None
        if status_count > 0:
            last_status_at = rng.uniform(created_at, NOW)
        columns.add(
            node, followers, friends[offsets[node] : offsets[node + 1]], language,
            rng.random() < protected_fraction, created_at, status_count, last_status_at,
        )
    return columns.build()


def generate_network(
    model: str,
    nodes: int,
    rng_seed: int,
    *,
    m: int = 3,
    p: float = 0.05,
    factor: float = 50.0,
    high_fraction: float = 0.01,
    blocks: int = 2,
    cross_fraction: float = 0.02,
    **profile_settings,
) -> tuple[DirectedGraph, ProfileTable]:
    """One-call generator: edges plus consistent profiles for the chosen model.
    Each model reads only its own settings and checks their ranges;
    profile_settings go to build_profiles. The graph is built from the
    profiles' friend rows, which hold every edge, over a list of the table's
    ids."""
    edge_rng = substream(rng_seed, f"generate/{model}/edges")
    profile_rng = substream(rng_seed, f"generate/{model}/profiles")
    if model == "preferential-attachment":
        edges = preferential_attachment(nodes, m, edge_rng)
    elif model == "reciprocal-er":
        edges = reciprocal_er(nodes, p, edge_rng)
    elif model == "two-class":
        edges, _ = two_class(nodes, p, factor, high_fraction, edge_rng)
    elif model == "planted-blocks":
        edges = planted_blocks(nodes, m, blocks, cross_fraction, edge_rng)
    else:
        raise ValueError(f"unknown model {model!r}")
    profiles = build_profiles(nodes, edges, profile_rng, **profile_settings)
    sources = np.repeat(np.arange(nodes), np.diff(profiles.friend_offsets))
    graph = DirectedGraph(profiles.ids.tolist(), sources, profiles.friend_ids)
    return graph, profiles
