"""Community assignment (label-propagation baseline plus external ingestion)
and the community meta-graph aggregation."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graph import DirectedGraph, NodeId, _read_lines, parse_id


def label_propagation(
    graph: DirectedGraph, rng_seed: int = 0, max_iters: int = 100
) -> dict[NodeId, int]:
    """Asynchronous label propagation on the undirected view.

    Each node adopts the most frequent label among its neighbors, ties broken
    by lowest label; the visit order is reshuffled every iteration under
    rng_seed. Stops at a fixpoint or after max_iters sweeps. Labels are
    renumbered by descending community size (ties by lowest original label),
    so community 0 is always the largest.
    """
    if graph.num_nodes() == 0:
        raise ValueError("label_propagation requires a non-empty graph")
    rng = random.Random(rng_seed)
    neighbors = {
        n: sorted(graph.successors(n) | graph.predecessors(n)) for n in graph.nodes
    }
    labels: dict[NodeId, int] = {n: n for n in graph.nodes}
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
    return _renumber(labels)


def _renumber(labels: Mapping[NodeId, int]) -> dict[NodeId, int]:
    sizes = Counter(labels.values())
    ordered = sorted(sizes, key=lambda lbl: (-sizes[lbl], lbl))
    mapping = {old: new for new, old in enumerate(ordered)}
    return {node: mapping[lbl] for node, lbl in labels.items()}


def community_sizes(assignment: Mapping[NodeId, int]) -> dict[int, int]:
    return dict(Counter(assignment.values()))


def write_assignment(assignment: Mapping[NodeId, int], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("node,community\n")
        for node in sorted(assignment):
            fh.write(f"{node},{assignment[node]}\n")


def load_assignment(path, graph: DirectedGraph | None = None) -> dict[NodeId, int]:
    """Parse a `node,community` CSV. When a graph is given the assignment must be
    total over its nodes and must not mention unknown nodes."""
    assignment: dict[NodeId, int] = {}

    def add(line: str) -> None:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'node,community', got {line!r}")
        node = parse_id(parts[0])
        try:
            community = int(parts[1])
        except ValueError:
            raise ValueError(f"non-integer community in {line!r}") from None
        if node in assignment:
            raise ValueError(f"duplicate node {node}")
        assignment[node] = community

    _read_lines(path, add, header="node,community")
    if graph is not None:
        unknown = sorted(n for n in assignment if n not in graph)
        if unknown:
            raise ValueError(f"{path}: assignment mentions unknown nodes: {unknown[:10]}")
        missing = sorted(n for n in graph.nodes if n not in assignment)
        if missing:
            raise ValueError(f"{path}: assignment misses graph nodes: {missing[:10]}")
    return assignment


@dataclass
class CommunityGraph:
    """Meta-graph: communities of size >= min_size, directed edges weighted by
    the number of follow edges between their members."""

    sizes: dict[int, int]
    weights: dict[tuple[int, int], int]
    min_size: int
    min_weight: int


def aggregate_weights(
    graph: DirectedGraph, assignment: Mapping[NodeId, int]
) -> tuple[dict[tuple[int, int], int], int]:
    """Unfiltered inter-community edge counts plus the intra-community count.

    Sum of all weights + intra count equals the graph's edge count exactly.
    """
    missing = sorted(n for n in graph.nodes if n not in assignment)
    if missing:
        raise ValueError(f"assignment misses graph nodes: {missing[:10]}")
    weights: dict[tuple[int, int], int] = {}
    intra = 0
    for source, target in graph.edges():
        c1, c2 = assignment[source], assignment[target]
        if c1 == c2:
            intra += 1
        else:
            weights[(c1, c2)] = weights.get((c1, c2), 0) + 1
    return weights, intra


def community_graph(
    graph: DirectedGraph,
    assignment: Mapping[NodeId, int],
    min_size: int = 100,
    min_weight: int = 0,
) -> CommunityGraph:
    if min_size < 1:
        raise ValueError("min_size must be positive")
    if min_weight < 0:
        raise ValueError("min_weight must be non-negative")
    weights, _ = aggregate_weights(graph, assignment)
    sizes = Counter(assignment[n] for n in graph.nodes)
    kept = {c: s for c, s in sizes.items() if s >= min_size}
    kept_weights = {
        (c1, c2): w
        for (c1, c2), w in weights.items()
        if c1 in kept and c2 in kept and w >= min_weight
    }
    return CommunityGraph(dict(kept), kept_weights, min_size, min_weight)


def write_community_graph_csv(meta: CommunityGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source_community,target_community,weight\n")
        for (c1, c2), w in sorted(meta.weights.items()):
            fh.write(f"{c1},{c2},{w}\n")


def write_community_sizes_csv(sizes: Mapping[int, int], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("community,size\n")
        for community in sorted(sizes):
            fh.write(f"{community},{sizes[community]}\n")


def active_accounts(
    assignment: Mapping[NodeId, int],
    t0: float,
    t1: float,
    node_timestamps: Mapping[NodeId, Sequence[float]],
) -> dict[int, int]:
    """Per community, the number of member accounts with at least one activity
    timestamp inside [t0, t1]."""
    if t1 < t0:
        raise ValueError(f"invalid window: t1={t1} < t0={t0}")
    counts: dict[int, int] = {}
    for node, community in assignment.items():
        timestamps = node_timestamps.get(node, ())
        if any(t0 <= t <= t1 for t in timestamps):
            counts[community] = counts.get(community, 0) + 1
    return counts
