"""Directed graph core: representation, k-core, PageRank, edge-list and profile I/O."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

logger = logging.getLogger(__name__)

NodeId = int

# Mandatory JSONL profile fields; last_status_at is optional.
PROFILE_FIELDS = (
    "node",
    "follower_count",
    "friends_recent_first",
    "language",
    "protected",
    "created_at",
    "status_count",
)


@dataclass
class NodeProfile:
    """Static per-account metadata.

    friends_recent_first is ordered most recently followed first and must not
    contain duplicates or the account itself.
    """

    node: NodeId
    follower_count: int
    friends_recent_first: list[NodeId]
    language: str
    protected: bool
    created_at: float
    status_count: int
    last_status_at: float | None = None

    def __post_init__(self) -> None:
        if self.follower_count < 0:
            raise ValueError(f"profile {self.node}: negative follower_count")
        if self.status_count < 0:
            raise ValueError(f"profile {self.node}: negative status_count")
        if self.node in self.friends_recent_first:
            raise ValueError(f"profile {self.node}: lists itself as a friend")
        if len(set(self.friends_recent_first)) != len(self.friends_recent_first):
            raise ValueError(f"profile {self.node}: duplicate entries in friend list")


class DirectedGraph:
    """Simple directed graph: no self-loops, no parallel edges.

    A ground-truth graph is immutable by convention once built; the sample
    graph grows edge by edge.
    """

    __slots__ = ("_succ", "_pred", "_num_edges")

    def __init__(self) -> None:
        self._succ: dict[NodeId, set[NodeId]] = {}
        self._pred: dict[NodeId, set[NodeId]] = {}
        self._num_edges = 0

    def add_node(self, node: NodeId) -> None:
        if node < 0:
            raise ValueError(f"node ids must be non-negative, got {node}")
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, source: NodeId, target: NodeId) -> bool:
        """Insert a directed edge. Returns False if it was already present."""
        if source == target:
            raise ValueError(f"self-loop rejected: ({source}, {target})")
        self.add_node(source)
        self.add_node(target)
        if target in self._succ[source]:
            return False
        self._succ[source].add(target)
        self._pred[target].add(source)
        self._num_edges += 1
        return True

    @property
    def nodes(self) -> set[NodeId]:
        return set(self._succ)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._succ

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        friends = self._succ.get(source)
        return friends is not None and target in friends

    def successors(self, node: NodeId) -> set[NodeId]:
        return self._succ[node]

    def predecessors(self, node: NodeId) -> set[NodeId]:
        return self._pred[node]

    def out_degree(self, node: NodeId) -> int:
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        return len(self._pred[node])

    def total_degree(self, node: NodeId) -> int:
        # A reciprocal pair counts 2: one in plus one out.
        return len(self._succ[node]) + len(self._pred[node])

    def num_nodes(self) -> int:
        return len(self._succ)

    def num_edges(self) -> int:
        return self._num_edges

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        for source, targets in self._succ.items():
            for target in targets:
                yield source, target

    def copy(self) -> "DirectedGraph":
        g = DirectedGraph()
        for node in self._succ:
            g.add_node(node)
        for source, target in self.edges():
            g.add_edge(source, target)
        return g

    def subgraph(self, nodes: Iterable[NodeId]) -> "DirectedGraph":
        """Induced subgraph on the given node subset."""
        keep = set(nodes)
        g = DirectedGraph()
        for node in keep:
            if node in self._succ:
                g.add_node(node)
        for node in g.nodes:
            for target in self._succ[node]:
                if target in keep:
                    g.add_edge(node, target)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self._succ == other._succ

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.num_nodes()}, edges={self.num_edges()})"

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> "DirectedGraph":
        g = cls()
        for node in nodes:
            g.add_node(node)
        for source, target in edges:
            g.add_edge(source, target)
        return g


def k_core(graph: DirectedGraph, k: int) -> DirectedGraph:
    """Maximal subgraph in which every node has total degree (in + out) >= k.

    Iterative peeling; the fixpoint is independent of deletion order, so
    k_core is idempotent. An empty graph yields an empty graph.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    degree = {n: graph.total_degree(n) for n in graph.nodes}
    removed: set[NodeId] = set()
    stack = [n for n, d in degree.items() if d < k]
    removed.update(stack)
    while stack:
        node = stack.pop()
        for neighbor in list(graph.successors(node)) + list(graph.predecessors(node)):
            if neighbor in removed:
                continue
            degree[neighbor] -= 1
            if degree[neighbor] < k:
                removed.add(neighbor)
                stack.append(neighbor)
    return graph.subgraph(n for n in graph.nodes if n not in removed)


@dataclass
class PageRankResult:
    """PageRank scores plus a convergence flag (scores are returned either way)."""

    scores: dict[NodeId, float]
    converged: bool
    iterations: int


def pagerank(
    graph: DirectedGraph,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_iters: int = 200,
) -> PageRankResult:
    """Power iteration with uniform teleport; dangling mass is redistributed uniformly.

    Stops when the L1 change drops below `tolerance`; if `max_iters` is reached
    first the result is flagged as non-converged.
    """
    if graph.num_nodes() == 0:
        raise ValueError("pagerank requires a non-empty graph")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    m = graph.num_edges()
    src = np.empty(m, dtype=np.intp)
    dst = np.empty(m, dtype=np.intp)
    pos = 0
    for node in nodes:
        for target in graph.successors(node):
            src[pos] = index[node]
            dst[pos] = index[target]
            pos += 1
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_degree == 0.0
    inv_out = np.zeros(n)
    np.divide(1.0, out_degree, out=inv_out, where=~dangling)

    scores = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        contrib = scores * inv_out
        if m:
            incoming = np.bincount(dst, weights=contrib[src], minlength=n)
        else:
            incoming = np.zeros(n)
        dangling_mass = scores[dangling].sum() / n
        new_scores = damping * (incoming + dangling_mass) + teleport
        delta = np.abs(new_scores - scores).sum()
        scores = new_scores
        if delta < tolerance:
            converged = True
            break
    if not converged:
        logger.warning("pagerank did not converge within %d iterations", max_iters)
    return PageRankResult(
        scores={node: float(scores[index[node]]) for node in nodes},
        converged=converged,
        iterations=iterations,
    )


def write_edge_list(graph: DirectedGraph, path) -> None:
    """CSV with header `source,target`, one edge per line, sorted for determinism."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target\n")
        for source, target in sorted(graph.edges()):
            fh.write(f"{source},{target}\n")


def read_edge_list(path) -> DirectedGraph:
    """Parse a `source,target` CSV. Duplicate edges are dropped with a logged count;
    malformed lines and self-loops raise with the offending line number."""
    graph = DirectedGraph()
    duplicates = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "source,target":
            raise ValueError(f"{path}: line 1: expected header 'source,target', got {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'source,target', got {line!r}")
            try:
                source, target = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer node id in {line!r}") from None
            if source < 0 or target < 0:
                raise ValueError(f"{path}: line {lineno}: negative node id in {line!r}")
            if source == target:
                raise ValueError(f"{path}: line {lineno}: self-loop {source},{target}")
            if not graph.add_edge(source, target):
                duplicates += 1
    if duplicates:
        logger.warning("%s: ignored %d duplicate edge(s)", path, duplicates)
    return graph


def write_profiles(profiles: Mapping[NodeId, NodeProfile] | Iterable[NodeProfile], path) -> None:
    """One JSON object per line, sorted by node id."""
    if isinstance(profiles, Mapping):
        items = [profiles[node] for node in sorted(profiles)]
    else:
        items = sorted(profiles, key=lambda p: p.node)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for p in items:
            record = {
                "node": p.node,
                "follower_count": p.follower_count,
                "friends_recent_first": list(p.friends_recent_first),
                "language": p.language,
                "protected": p.protected,
                "created_at": p.created_at,
                "status_count": p.status_count,
                "last_status_at": p.last_status_at,
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_profiles(path) -> dict[NodeId, NodeProfile]:
    """Parse JSONL profiles. Missing mandatory fields and duplicate node ids raise."""
    profiles: dict[NodeId, NodeProfile] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
            for field_name in PROFILE_FIELDS:
                if field_name not in record:
                    raise ValueError(f"{path}: line {lineno}: missing field {field_name!r}")
            node = int(record["node"])
            if node in profiles:
                raise ValueError(f"{path}: line {lineno}: duplicate node id {node}")
            profiles[node] = NodeProfile(
                node=node,
                follower_count=int(record["follower_count"]),
                friends_recent_first=[int(v) for v in record["friends_recent_first"]],
                language=str(record["language"]),
                protected=bool(record["protected"]),
                created_at=float(record["created_at"]),
                status_count=int(record["status_count"]),
                last_status_at=(
                    None if record.get("last_status_at") is None else float(record["last_status_at"])
                ),
            )
    return profiles
