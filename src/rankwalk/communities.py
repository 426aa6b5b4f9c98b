"""Community assignment (label-propagation baseline plus external ingestion)
and the community meta-graph aggregation."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .graph import DirectedGraph, NodeId, UndirectedGraph, _read_lines, parse_id


def label_propagation(
    graph: DirectedGraph, rng_seed: int = 0, max_iters: int = 100
) -> dict[NodeId, int]:
    """Asynchronous label propagation on the undirected view
    (UndirectedGraph.from_directed), whose rows list each node's neighbors.

    Each node adopts the most frequent label among its neighbors, ties broken
    by lowest label; the visit order is reshuffled every iteration under
    rng_seed. Stops at a fixpoint or after max_iters sweeps. Labels are
    renumbered by descending community size (ties by lowest original label),
    so community 0 is always the largest.
    """
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if graph.num_nodes() == 0:
        raise ValueError("label_propagation requires a non-empty graph")
    rng = random.Random(rng_seed)
    undirected = UndirectedGraph.from_directed(graph)
    offsets, neighbors = undirected.out_offsets.tolist(), undirected.out_targets.tolist()
    # A label is a node index, which orders as the node ids do.
    labels = list(range(graph.num_nodes()))
    order = labels.copy()
    for _ in range(max_iters):
        rng.shuffle(order)
        changed = False
        for i in order:
            if offsets[i] == offsets[i + 1]:
                continue
            counts = Counter(labels[j] for j in neighbors[offsets[i] : offsets[i + 1]])
            best = min(counts, key=lambda lbl: (-counts[lbl], lbl))
            if best != labels[i]:
                labels[i] = best
                changed = True
        if not changed:
            break
    sizes = Counter(labels)
    ordered = sorted(sizes, key=lambda lbl: (-sizes[lbl], lbl))
    mapping = {old: new for new, old in enumerate(ordered)}
    return dict(zip(graph.ids, [mapping[lbl] for lbl in labels]))


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
    if not min_size >= 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if not min_weight >= 0:
        raise ValueError(f"min_weight must be >= 0, got {min_weight}")
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

