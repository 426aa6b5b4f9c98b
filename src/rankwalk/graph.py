"""Directed graph core: representation, k-core, PageRank, edge-list and profile I/O."""

from __future__ import annotations

import gc
import json
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from types import NoneType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

logger = logging.getLogger(__name__)

NodeId = int


_ID_TEXT = re.compile(r"\s*\+?([0-9]+)\s*")


def parse_id(text: str) -> NodeId:
    """An account id written as text: ASCII digits, at most one leading '+' and
    surrounding whitespace; anything else raises ValueError naming the text."""
    match = _ID_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"expected a non-negative integer account id, got {text!r}")
    return int(match[1])


def _integer_id(value, field: str) -> NodeId:
    """An account id from JSON: an integer >= 0; a bool, float or string is rejected."""
    if type(value) is not int or value < 0:
        raise TypeError(f"field {field!r}: expected a JSON integer >= 0, got {value!r:.80}")
    return value


def _check_fields(record: dict, fields: Mapping[str, tuple[type, ...]]) -> None:
    """Raise for the first field of `fields` that `record` lacks or holds with a
    JSON type not listed for it. A field that allows null may be missing."""
    for name, types in fields.items():
        value = record.get(name) if NoneType in types else record[name]
        if type(value) not in types:
            expected = " or ".join("null" if t is NoneType else t.__name__ for t in types)
            raise TypeError(f"field {name!r}: expected {expected}, got {value!r:.80}")


def _read_lines(path, parse: Callable[[str], object], header: str | None = None) -> None:
    """Call `parse` on each non-blank line of a UTF-8 text file, stripped; with a
    header, line 1 must equal it. A ValueError, TypeError, KeyError (a missing
    field) or OverflowError from `parse` is raised again as
    ValueError("<path>: line N: <reason>").
    """
    with open(path, "r", encoding="utf-8") as fh:
        if header is not None:
            found = fh.readline().strip()
            if found != header:
                raise ValueError(f"{path}: line 1: expected header {header!r}, got {found!r}")
        for lineno, raw in enumerate(fh, start=1 if header is None else 2):
            line = raw.strip()
            if not line:
                continue
            try:
                parse(line)
            except KeyError as exc:
                raise ValueError(f"{path}: line {lineno}: missing field {exc}") from None
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            except OverflowError as exc:  # a JSON integer too large for a float field
                raise ValueError(f"{path}: line {lineno}: {exc}: {line:.80}") from None


def _read_json_lines(path, parse: Callable[[dict], object]) -> None:
    """_read_lines for JSONL: every non-blank line must hold a JSON object."""

    def parse_line(line: str) -> None:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON ({exc})") from None
        if type(record) is not dict:
            raise TypeError(f"expected a JSON object, got {record!r:.80}")
        parse(record)

    _read_lines(path, parse_line)


# The JSON types each profile field accepts, in NodeProfile's field order; int
# never matches a JSON boolean. last_status_at, the one field that allows
# null, may be missing. node and each friend must also pass _integer_id.
PROFILE_FIELDS: dict[str, tuple[type, ...]] = {
    "node": (int,),
    "follower_count": (int,),
    "friends_recent_first": (list,),
    "language": (str,),
    "protected": (bool,),
    "created_at": (int, float),
    "status_count": (int,),
    "last_status_at": (int, float, NoneType),
}
_PROFILE_SIGNATURES = frozenset(product(*PROFILE_FIELDS.values()))
_profile_values = itemgetter(*PROFILE_FIELDS)


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
    targets = [graph.successors(node) for node in nodes]
    src = np.repeat(np.arange(n), np.fromiter(map(len, targets), dtype=np.intp, count=n))
    # A dict lookup rather than a search of an int64 id array: ids may exceed 2**63.
    dst = np.fromiter(map(index.__getitem__, chain.from_iterable(targets)), dtype=np.intp, count=m)
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
        scores=dict(zip(nodes, scores.tolist())),
        converged=converged,
        iterations=iterations,
    )


def write_edge_list(graph: DirectedGraph, path) -> None:
    """CSV with header `source,target`, one edge per line, sorted for determinism."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target\n")
        for source, target in sorted(graph.edges()):
            fh.write(f"{source},{target}\n")


# A block of rows exactly as write_edge_list writes them. Ids are capped at
# 18 digits because np.fromstring clamps an id past 2**63 - 1 without error;
# longer ids take the per-line path.
_CANONICAL_ROWS = re.compile(r"(?:[0-9]{1,18},[0-9]{1,18}\n)*")
_BLOCK_CHARS = 1 << 20


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector while a reader allocates millions of objects.

    None of them form cycles, so every collection in between is wasted work.
    The collector is switched back on only if it was on before.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read_canonical_rows(path, fh) -> list[int] | None:
    """Flat [source, target, ...] ids of a canonical body, or None if any row is not canonical.

    Reads ~1 MB blocks cut at the last newline and parses each with one numpy
    call. A self-loop raises with its line number, as the per-line path would.
    """
    ids: list[int] = []
    tail = ""
    while chunk := fh.read(_BLOCK_CHARS):
        block = tail + chunk
        cut = block.rfind("\n") + 1
        block, tail = block[:cut], block[cut:]
        if not _CANONICAL_ROWS.fullmatch(block):
            return None
        values = np.fromstring(block.replace("\n", ","), dtype=np.int64, sep=",")
        loops = np.flatnonzero(values[0::2] == values[1::2])
        if loops.size:
            row = int(loops[0])
            source = int(values[2 * row])
            lineno = len(ids) // 2 + row + 2  # the header is line 1
            raise ValueError(f"{path}: line {lineno}: self-loop {source},{source}")
        ids += values.tolist()
    return None if tail else ids


def _parse_edge(source: str, target: str) -> tuple[NodeId, NodeId]:
    u, v = parse_id(source), parse_id(target)
    if u == v:
        raise ValueError(f"self-loop {u},{v}")
    return u, v


def _read_rows(path) -> list[int]:
    """Per-line parse of any edge list; raises on the first bad row with its line number."""
    ids: list[int] = []

    def add(line: str) -> None:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'source,target', got {line!r}")
        ids.extend(_parse_edge(*parts))

    _read_lines(path, add, header="source,target")
    return ids


def _graph_from_rows(ids: list[int]) -> DirectedGraph:
    """Build from flat [source, target, ...] ids of valid rows, in file order.

    Nodes and set members come out in the order a per-row add_edge build gives,
    and each node is one int object wherever it appears.
    """
    canon: dict[int, int] = {}
    # in place, so that the parsed copies of repeated ids are freed at once
    ids[:] = map(canon.setdefault, ids, ids)
    succ: dict[NodeId, set[NodeId]] = {node: set() for node in canon}
    pred: dict[NodeId, set[NodeId]] = {node: set() for node in canon}
    rows = iter(ids)
    for source, target in zip(rows, rows):
        succ[source].add(target)
        pred[target].add(source)
    graph = DirectedGraph()
    graph._succ, graph._pred = succ, pred
    graph._num_edges = sum(map(len, succ.values()))
    return graph


def read_edge_list(path) -> DirectedGraph:
    """Parse a `source,target` CSV. Duplicate edges are dropped with a logged count;
    malformed lines and self-loops raise with the offending line number.

    A body in the form write_edge_list writes (rows of two non-negative ids of
    at most 18 digits, every row ending in a newline) is parsed in bulk, one
    numpy call per ~1 MB block; reading in text mode turns CRLF into LF first.
    Any other file (a padded header, blank lines, padding, '+' signs, ids of
    19 or more digits, a missing final newline or a malformed row) is parsed
    line by line with parse_id, and that path raises every diagnostic except
    a self-loop in a canonical body.
    Both paths give the same graph: nodes and set members in file order, and
    each node one int object shared by its dict keys and set entries.
    """
    with _gc_paused():
        with open(path, "r", encoding="utf-8") as fh:
            canonical = fh.readline() == "source,target\n"
            ids = _read_canonical_rows(path, fh) if canonical else None
        if ids is None:
            ids = _read_rows(path)
        graph = _graph_from_rows(ids)
    duplicates = len(ids) // 2 - graph.num_edges()
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
    """Parse JSONL profiles, one JSON object per line; a value of a JSON type that
    PROFILE_FIELDS does not allow is rejected, not coerced."""
    profiles: dict[NodeId, NodeProfile] = {}

    def add(record: dict) -> None:
        record.setdefault("last_status_at", None)
        (node, follower_count, friends, language, protected, created_at, status_count,
         last_status_at) = _profile_values(record)
        signature = (
            type(node), type(follower_count), type(friends), type(language),
            type(protected), type(created_at), type(status_count), type(last_status_at),
        )
        if signature not in _PROFILE_SIGNATURES:
            _check_fields(record, PROFILE_FIELDS)
        _integer_id(node, "node")
        for friend in friends:
            _integer_id(friend, "friends_recent_first")
        if node in profiles:
            raise ValueError(f"duplicate node id {node}")
        profiles[node] = NodeProfile(
            node, follower_count, friends, language, protected, float(created_at), status_count,
            None if last_status_at is None else float(last_status_at),
        )

    with _gc_paused():
        _read_json_lines(path, add)
    return profiles
