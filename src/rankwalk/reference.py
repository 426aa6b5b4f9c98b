"""Original rank-degree sampling on undirected graphs with full knowledge.

Serves as the equivalence oracle for the API-constrained walker and as a
standalone sampling baseline: each seed walks to its highest-current-degree
neighbor, the traversed edge counts as removed from then on, and seeds are
redrawn when the walk runs out of usable neighbors.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import DirectedGraph, NodeId


class UndirectedGraph:
    """Simple undirected graph; the reference sampler reads it and never modifies it."""

    def __init__(self) -> None:
        self._adj: dict[NodeId, set[NodeId]] = {}
        self._num_edges = 0

    def add_node(self, node: NodeId) -> None:
        if node not in self._adj:
            self._adj[node] = set()

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        if u == v:
            raise ValueError(f"self-loop rejected: {u}")
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def neighbors(self, node: NodeId) -> set[NodeId]:
        return self._adj[node]

    @property
    def nodes(self) -> set[NodeId]:
        return set(self._adj)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def num_edges(self) -> int:
        return self._num_edges

    def num_nodes(self) -> int:
        return len(self._adj)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> "UndirectedGraph":
        g = cls()
        for node in nodes:
            g.add_node(node)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_directed(cls, graph: DirectedGraph) -> "UndirectedGraph":
        """Collapse a directed graph: every directed edge (and in particular each
        reciprocal pair) becomes one undirected edge."""
        sources, targets = graph.edge_sources(), graph.out_targets
        rows = np.concatenate([sources, targets])
        ends = np.concatenate([targets, sources])[np.argsort(rows)]
        neighbors = np.array(graph.ids, dtype=object)[ends].tolist()
        bounds = np.cumsum(np.bincount(rows, minlength=graph.num_nodes())).tolist()
        adj = [set(neighbors[start:stop]) for start, stop in zip([0, *bounds], bounds)]
        g = cls()
        g._adj = dict(zip(graph.ids, adj))
        g._num_edges = sum(map(len, g._adj.values())) // 2
        return g


@dataclass
class RankDegreeResult:
    """Sample as directed pairs plus the walk-oriented trace.

    edges holds (w, v) and (v, w) for every traversed undirected edge, in
    collection order; walked holds just the walk-oriented (w, v) selections.
    reached_target is False when the graph was exhausted before sample_size.
    """

    edges: list[tuple[NodeId, NodeId]]
    walked: list[tuple[NodeId, NodeId]]
    reached_target: bool


SEED_POLLS_PER_NODE = 100


def rank_degree(
    graph: UndirectedGraph,
    initial_seeds: Sequence[NodeId],
    sample_size: int,
    rho: float = 1.0,
    rng_seed: int = 0,
    *,
    collapse: bool = True,
    reseed_on_leaf: bool = True,
    seed_source: Callable[[], NodeId] | None = None,
) -> RankDegreeResult:
    """Run the rank-degree process until the sample holds sample_size directed edges.

    Per seed w, the top-k neighbors by current (dynamically updated) degree are
    selected, ties broken by lowest id; rho == 1 selects the single-best-neighbor
    variant, rho < 1 the top-k variant with k = max(1, floor(rho * degree(w))).
    Selected undirected edges count as removed from then on; both orientations
    enter the sample. With collapse=True walkers landing on the same node merge.

    The input graph is not modified: current degrees and removed edges are
    tracked beside it. Each walked node w keeps a lazy heap of its neighbors
    keyed (-degree when pushed, id), built on w's first visit. A step pops
    entries whose edge is gone and re-pushes entries whose degree has fallen
    until the top is current; degrees only fall, so a stale key ranks too
    high, never too low, and the top is the true best neighbor. The top k are
    drawn one at a time, which equals ranking once, because removing w-v
    changes only the degrees of w and v.

    Re-seeding triggers once every current seed has degree <= 1 (or degree 0
    with reseed_on_leaf=False) and draws uniformly from the remaining
    non-isolated nodes, either via the internal RNG or via seed_source, which
    is polled with rejection of unusable ids. After SEED_POLLS_PER_NODE polls
    per graph node in a row without a usable id, ValueError is raised; a
    source drawing uniformly from the graph's nodes gets that far with
    probability below e**-SEED_POLLS_PER_NODE. Exhausting the graph before
    sample_size returns the partial sample flagged.
    """
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    unknown = [s for s in initial_seeds if s not in graph]
    if unknown:
        raise ValueError(f"seeds not in graph: {unknown}")

    adj = graph._adj
    degree = {node: len(nbrs) for node, nbrs in adj.items()}
    removed: set[tuple[NodeId, NodeId]] = set()
    heaps: dict[NodeId, list[tuple[int, NodeId]]] = {}
    eligible = sorted(adj)
    rng = random.Random(rng_seed)
    threshold = 1 if reseed_on_leaf else 0
    poll_limit = SEED_POLLS_PER_NODE * len(adj)
    seed_count = max(1, len(initial_seeds))

    edges: list[tuple[NodeId, NodeId]] = []
    walked: list[tuple[NodeId, NodeId]] = []
    seeds = list(initial_seeds)
    fresh = True

    def best_neighbor(w: NodeId) -> NodeId:
        heap = heaps.get(w)
        if heap is None:
            heap = heaps[w] = [(-degree[v], v) for v in adj[w]]
            heapq.heapify(heap)
        while True:
            key, v = heap[0]
            if ((w, v) if w < v else (v, w)) in removed:
                heapq.heappop(heap)
            elif -key != degree[v]:
                heapq.heapreplace(heap, (-degree[v], v))
            else:
                return v

    def redraw() -> list[NodeId]:
        nonlocal eligible
        eligible = [n for n in eligible if degree[n]]
        if not eligible:
            return []
        if seed_source is not None:
            drawn: list[NodeId] = []
            eligible_set = set(eligible)
            misses = 0
            while len(drawn) < seed_count:
                candidate = seed_source()
                if candidate in eligible_set:
                    drawn.append(candidate)
                    misses = 0
                else:
                    misses += 1
                    if misses == poll_limit:
                        raise ValueError(
                            f"seed_source gave no usable seed in {poll_limit} polls in a row"
                        )
            return drawn
        return [rng.choice(eligible) for _ in range(seed_count)]

    while len(edges) < sample_size:
        if not fresh and all(degree[s] <= threshold for s in seeds):
            seeds = redraw()
            fresh = True
            if not seeds:
                return RankDegreeResult(edges, walked, reached_target=False)
        new_seeds: list[NodeId] = []
        for w in seeds:
            if len(edges) >= sample_size:
                break
            if not degree[w]:
                continue
            k = 1 if rho >= 1.0 else max(1, math.floor(rho * degree[w]))
            for _ in range(k):
                v = best_neighbor(w)
                edges.append((w, v))
                edges.append((v, w))
                walked.append((w, v))
                removed.add((w, v) if w < v else (v, w))
                degree[w] -= 1
                degree[v] -= 1
                new_seeds.append(v)
                if len(edges) >= sample_size:
                    break
        seeds = list(dict.fromkeys(new_seeds)) if collapse else new_seeds
        fresh = False

    return RankDegreeResult(edges, walked, reached_target=len(edges) >= sample_size)
