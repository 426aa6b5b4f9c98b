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
from typing import Callable, Sequence

import numpy as np

from .graph import NodeId, UndirectedGraph, _gc_paused


@dataclass
class RankDegreeResult:
    """The walk-oriented (w, v) selections in collection order; the sample is
    every traversed undirected edge in both orientations.

    reached_target is False when the graph was exhausted before sample_size.
    """

    walked: list[tuple[NodeId, NodeId]]
    reached_target: bool

    @property
    def edges(self) -> list[tuple[NodeId, NodeId]]:
        """(w, v) and (v, w) for every walked (w, v), in collection order."""
        return [edge for w, v in self.walked for edge in ((w, v), (v, w))]


SEED_POLLS_PER_NODE = 100


@_gc_paused()
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

    graph is the undirected view of a follow network, whose row i
    (out_targets[out_offsets[i]:out_offsets[i + 1]]) lists the indices of
    node ids[i]'s neighbors, each edge in two rows. It is not modified:
    current degrees and removed edges are tracked beside it, by node index,
    which orders as the ids do. Each walked node w keeps a lazy heap of its
    neighbors, built from w's row on its first visit. An entry for neighbor v
    is one int, v - degree * n with the degree v had when pushed: it orders
    as (-degree, v), and v is the entry mod n. A step pops entries whose edge
    is gone and re-pushes entries whose degree has fallen until the top is
    current; degrees only fall, so a stale key ranks too high, never too low,
    and the top is the true best neighbor. The top k are drawn one at a time,
    which equals ranking once, because removing w-v changes only the degrees
    of w and v.

    Re-seeding triggers once every current seed has degree <= 1 (or degree 0
    with reseed_on_leaf=False) and draws uniformly from the remaining
    non-isolated nodes, either via the internal RNG or via seed_source, which
    is polled with rejection of unusable ids. After SEED_POLLS_PER_NODE polls
    per graph node in a row without a usable id, ValueError is raised; a
    source drawing uniformly from the graph's nodes gets that far with
    probability below e**-SEED_POLLS_PER_NODE. Exhausting the graph before
    sample_size returns the partial sample flagged.
    """
    if not sample_size >= 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    ids, offsets, neighbors = graph.ids, graph.out_offsets, graph.out_targets
    index_of = graph.index_of
    n = len(ids)

    unknown = [s for s in initial_seeds if index_of(s) is None]
    if unknown:
        raise ValueError(f"seeds not in graph: {unknown}")

    degree = np.diff(offsets).tolist()
    removed: set[int] = set()  # u * n + v for each removed edge u-v with u < v
    heaps: dict[int, list[int]] = {}
    eligible = list(range(n))
    rng = random.Random(rng_seed)
    threshold = 1 if reseed_on_leaf else 0
    poll_limit = SEED_POLLS_PER_NODE * n
    seed_count = max(1, len(initial_seeds))

    walked: list[tuple[NodeId, NodeId]] = []
    seeds = list(map(index_of, initial_seeds))
    fresh = True

    def best_neighbor(w: int) -> int:
        heap = heaps.get(w)
        if heap is None:
            row = neighbors[offsets[w] : offsets[w + 1]].tolist()
            heap = heaps[w] = [v - degree[v] * n for v in row]
            heapq.heapify(heap)
        while True:
            key = heap[0]
            v = key % n
            if (w * n + v if w < v else v * n + w) in removed:
                heapq.heappop(heap)
            elif key != v - degree[v] * n:
                heapq.heapreplace(heap, v - degree[v] * n)
            else:
                return v

    def redraw() -> list[int]:
        nonlocal eligible
        eligible = [i for i in eligible if degree[i]]
        if not eligible:
            return []
        if seed_source is not None:
            drawn: list[int] = []
            misses = 0
            while len(drawn) < seed_count:
                i = index_of(seed_source())
                if i is not None and degree[i]:
                    drawn.append(i)
                    misses = 0
                else:
                    misses += 1
                    if misses == poll_limit:
                        raise ValueError(
                            f"seed_source gave no usable seed in {poll_limit} polls in a row"
                        )
            return drawn
        return [rng.choice(eligible) for _ in range(seed_count)]

    while 2 * len(walked) < sample_size:
        if not fresh and all(degree[s] <= threshold for s in seeds):
            seeds = redraw()
            fresh = True
            if not seeds:
                return RankDegreeResult(walked, reached_target=False)
        new_seeds: list[int] = []
        for w in seeds:
            if 2 * len(walked) >= sample_size:
                break
            if not degree[w]:
                continue
            k = 1 if rho >= 1.0 else max(1, math.floor(rho * degree[w]))
            for _ in range(k):
                v = best_neighbor(w)
                walked.append((ids[w], ids[v]))
                removed.add(w * n + v if w < v else v * n + w)
                degree[w] -= 1
                degree[v] -= 1
                new_seeds.append(v)
                if 2 * len(walked) >= sample_size:
                    break
        seeds = list(dict.fromkeys(new_seeds)) if collapse else new_seeds
        fresh = False

    return RankDegreeResult(walked, reached_target=True)
