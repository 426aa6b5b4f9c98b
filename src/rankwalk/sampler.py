"""Adapted rank-degree walk for directed follow networks.

Logical walkers, stepped round-robin on one thread, hop from a node to its
highest-follower-count, language-matching friend over an unburned edge,
burning each traversed edge and jumping to a fresh random seed at dead ends.
Traversed edges land in the sample together with the reciprocal edge when the
ground truth contains one.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import countOf
from typing import Mapping, Sequence

from .graph import (
    DirectedGraph,
    NodeId,
    NodeProfile,
    _check_fields,
    _graph_from_rows,
    _integer_id,
    _parse_edge,
    _read_json_lines,
    _read_lines,
)
from .oracle import NotFoundError, ProtectedError, SimulatedOracle

WALKED = "walked"
SYMMETRIC = "symmetric"
SEED = "seed"

Edge = tuple[NodeId, NodeId]


@dataclass
class SamplerConfig:
    """Run parameters. At least one stop condition must be set.

    burn_symmetric and dynamic_rank switch off the two API-practicality
    adaptations (partial burning, static follower ranking); both default to
    the adapted behavior and exist so the walk can be compared against the
    original full-knowledge formulation on reciprocal graphs.
    """

    target_language: str = "de"
    walker_count: int = 200
    max_sample_nodes: int | None = None
    max_sample_edges: int | None = None
    max_simulated_seconds: float | None = None
    max_steps: int | None = None
    rng_seed: int = 0
    language_filter_enabled: bool = True
    add_symmetric_edge: bool = True
    burn_symmetric: bool = False
    dynamic_rank: bool = False

    def __post_init__(self) -> None:
        if self.walker_count < 1:
            raise ValueError("walker_count must be positive")
        stops = (
            self.max_sample_nodes,
            self.max_sample_edges,
            self.max_simulated_seconds,
            self.max_steps,
        )
        if all(s is None for s in stops):
            raise ValueError("at least one stop condition must be set")


class SeedPool:
    """Uniform draws with replacement from a fixed id pool, reproducible under seed."""

    def __init__(self, nodes: Sequence[NodeId], rng: random.Random | int) -> None:
        if not nodes:
            raise ValueError("seed pool must not be empty")
        self._nodes = list(nodes)
        self._rng = rng if isinstance(rng, random.Random) else random.Random(rng)

    def draw(self) -> NodeId:
        return self._nodes[self._rng.randrange(len(self._nodes))]

    def __len__(self) -> int:
        return len(self._nodes)

    def getstate(self):
        return self._rng.getstate()

    def setstate(self, state) -> None:
        self._rng.setstate(state)


class BurnStore:
    """Append-only set of walked directed edges; an edge burns at most once."""

    def __init__(self, edges: Sequence[Edge] = ()) -> None:
        self._edges: set[Edge] = set()
        self._log: list[Edge] = []
        self._into: Counter[NodeId] = Counter()
        for edge in edges:
            self.burn(tuple(edge))

    def burn(self, edge: Edge) -> bool:
        """Claim an edge. Returns False if some walker already burned it."""
        if edge in self._edges:
            return False
        self._edges.add(edge)
        self._log.append(edge)
        self._into[edge[1]] += 1
        return True

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def burned_into(self, node: NodeId) -> int:
        """Number of burned edges pointing at `node`."""
        return self._into.get(node, 0)

    @property
    def log(self) -> list[Edge]:
        return list(self._log)


class SampleGraph:
    """The growing sample: collected edges plus node/edge provenance.

    Provenance per edge is `walked` or `symmetric`; a symmetric edge that is
    later walked is upgraded. Seeds are registered as nodes even when no edge
    touches them, so downstream filters can drop leaf seeds explicitly.
    """

    def __init__(self) -> None:
        self.graph = DirectedGraph()
        self._edge_provenance: dict[Edge, str] = {}
        self._node_provenance: dict[NodeId, str] = {}

    def add_seed(self, node: NodeId) -> None:
        self.graph.add_node(node)
        self._node_provenance.setdefault(node, SEED)

    def add_edge(self, source: NodeId, target: NodeId, provenance: str) -> bool:
        added = self.graph.add_edge(source, target)
        if added:
            self._edge_provenance[(source, target)] = provenance
        elif provenance == WALKED:
            self._edge_provenance[(source, target)] = WALKED
        self._node_provenance.setdefault(source, provenance)
        self._node_provenance.setdefault(target, provenance)
        return added

    def edge_provenance(self, source: NodeId, target: NodeId) -> str:
        return self._edge_provenance[(source, target)]

    def node_provenance(self, node: NodeId) -> str:
        return self._node_provenance[node]

    def num_edges(self) -> int:
        return self.graph.num_edges()

    def num_nodes(self) -> int:
        return self.graph.num_nodes()

    def edges_with_provenance(self) -> list[tuple[NodeId, NodeId, str]]:
        return [(s, t, p) for (s, t), p in sorted(self._edge_provenance.items())]


@dataclass
class WalkerState:
    """Position of one logical walker. last_edge is the edge walked by the step
    that produced this state, or None when that step jumped."""

    walker_id: int
    current: NodeId
    hops_since_jump: int = 0
    last_edge: Edge | None = None


@dataclass
class RunStats:
    steps: int = 0
    jumps: int = 0
    friends_calls: int = 0
    profile_calls: int = 0
    simulated_seconds: float = 0.0
    sample_nodes: int = 0
    sample_edges: int = 0
    walked_edges: int = 0
    symmetric_edges: int = 0
    stop_reason: str = ""
    walk_log: list[Edge] = field(default_factory=list)
    growth: list[tuple[float, int, int]] = field(default_factory=list)
    # Run artifacts for resume support; not part of the serialized stats.
    final_walkers: list["WalkerState"] = field(default_factory=list)
    burn_store: "BurnStore | None" = None

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "jumps": self.jumps,
            "friends_calls": self.friends_calls,
            "profile_calls": self.profile_calls,
            "simulated_seconds": self.simulated_seconds,
            "sample_nodes": self.sample_nodes,
            "sample_edges": self.sample_edges,
            "walked_edges": self.walked_edges,
            "symmetric_edges": self.symmetric_edges,
            "stop_reason": self.stop_reason,
        }


def select_target(
    w: NodeId,
    friends_page: Sequence[NodeId],
    profiles: Mapping[NodeId, NodeProfile],
    burn: BurnStore,
    config: SamplerConfig,
) -> NodeId | None:
    """Pick the friend with the highest follower count over an unburned edge,
    language-matching when the filter is on; ties broken by lowest id.
    Returns None when no friend qualifies (the jump signal)."""
    best: NodeId | None = None
    best_key: tuple[int, NodeId] | None = None
    for v in friends_page:
        profile = profiles.get(v)
        if profile is None:
            continue
        if config.language_filter_enabled and profile.language != config.target_language:
            continue
        if (w, v) in burn:
            continue
        score = profile.follower_count
        if config.dynamic_rank:
            score -= burn.burned_into(v)
        key = (-score, v)
        if best_key is None or key < best_key:
            best, best_key = v, key
    return best


def walker_step(
    state: WalkerState,
    oracle: SimulatedOracle,
    burn: BurnStore,
    sample: SampleGraph,
    seed_pool: SeedPool,
    config: SamplerConfig,
    profile_cache: dict[NodeId, NodeProfile] | None = None,
) -> WalkerState:
    """One walker step: fetch the current node's friends page, walk the best
    eligible edge, or jump to a fresh seed when none qualifies.

    select_target skips burned edges, so the burn always succeeds; a refused
    burn means an edge would be walked twice and aborts the run.
    """
    w = state.current
    profiles = profile_cache if profile_cache is not None else {}

    def jump() -> WalkerState:
        seed = seed_pool.draw()
        sample.add_seed(seed)
        return WalkerState(state.walker_id, seed, 0, None)

    try:
        page = oracle.get_friends(w)
    except (NotFoundError, ProtectedError):
        return jump()

    missing = [v for v in page.friends if v not in profiles]
    if missing:
        profiles.update(oracle.get_profiles(missing))

    v = select_target(w, page.friends, profiles, burn, config)
    if v is None:
        return jump()
    if not burn.burn((w, v)):
        raise RuntimeError(f"edge {(w, v)} selected after it was burned")

    sample.add_edge(w, v, WALKED)
    has_reverse = oracle.follows(v, w)
    if has_reverse and config.add_symmetric_edge:
        sample.add_edge(v, w, SYMMETRIC)
    if has_reverse and config.burn_symmetric:
        burn.burn((v, w))
    return WalkerState(state.walker_id, v, state.hops_since_jump + 1, (w, v))


@dataclass
class RunState:
    """Serializable mid-run snapshot for interrupted-run continuation."""

    clock_now: float
    seed_pool_state: object
    burned: list[Edge]
    edges: list[tuple[NodeId, NodeId, str]]
    seed_nodes: list[NodeId]
    walkers: list[WalkerState]


def run_sample(
    config: SamplerConfig,
    oracle: SimulatedOracle,
    seed_pool: SeedPool,
    deterministic: bool = True,
    resume: RunState | None = None,
) -> tuple[SampleGraph, RunStats]:
    """Run walker_count logical walkers until a stop condition triggers.

    Walkers step round-robin in a single thread, so a run is reproducible
    bit-for-bit from its inputs and seed. Walkers landing on the same node
    continue independently (no collapsing). Stop conditions are checked after
    every step. `deterministic` is accepted for older callers and ignored:
    round-robin is the only schedule.
    """
    if len(seed_pool) == 0:
        raise ValueError("seed pool must not be empty")

    burn = BurnStore(resume.burned if resume else ())
    sample = SampleGraph()
    stats = RunStats()
    profile_cache: dict[NodeId, NodeProfile] = {}

    if resume is not None:
        oracle.clock.advance_to(resume.clock_now)
        seed_pool.setstate(resume.seed_pool_state)
        for node in resume.seed_nodes:
            sample.add_seed(node)
        for source, target, provenance in resume.edges:
            sample.add_edge(source, target, provenance)
        walkers = [
            WalkerState(w.walker_id, w.current, w.hops_since_jump) for w in resume.walkers
        ]
    else:
        walkers = []
        for walker_id in range(config.walker_count):
            seed = seed_pool.draw()
            sample.add_seed(seed)
            walkers.append(WalkerState(walker_id, seed))

    friends_calls_start = oracle.calls_by_endpoint[oracle.FRIENDS]
    profile_calls_start = oracle.calls_by_endpoint[oracle.PROFILES]
    clock_start = oracle.clock.now
    stats.growth.append((0.0, sample.num_edges(), sample.num_nodes()))

    def stop_reason() -> str | None:
        if config.max_sample_edges is not None and sample.num_edges() >= config.max_sample_edges:
            return "max_sample_edges"
        if config.max_sample_nodes is not None and sample.num_nodes() >= config.max_sample_nodes:
            return "max_sample_nodes"
        if (
            config.max_simulated_seconds is not None
            and oracle.clock.now - clock_start >= config.max_simulated_seconds
        ):
            return "max_simulated_seconds"
        if config.max_steps is not None and stats.steps >= config.max_steps:
            return "max_steps"
        return None

    reason = stop_reason()
    index = 0
    while reason is None:
        state = walker_step(
            walkers[index], oracle, burn, sample, seed_pool, config, profile_cache
        )
        walkers[index] = state
        stats.steps += 1
        if state.last_edge is None:
            stats.jumps += 1
        else:
            stats.walk_log.append(state.last_edge)
        edges = sample.num_edges()
        if edges != stats.growth[-1][1]:
            stats.growth.append((oracle.clock.now - clock_start, edges, sample.num_nodes()))
        reason = stop_reason()
        index = (index + 1) % len(walkers)

    stats.stop_reason = reason
    stats.friends_calls = oracle.calls_by_endpoint[oracle.FRIENDS] - friends_calls_start
    stats.profile_calls = oracle.calls_by_endpoint[oracle.PROFILES] - profile_calls_start
    stats.simulated_seconds = oracle.clock.now - clock_start
    stats.sample_nodes = sample.num_nodes()
    stats.sample_edges = sample.num_edges()
    stats.walked_edges = countOf(sample._edge_provenance.values(), WALKED)
    stats.symmetric_edges = stats.sample_edges - stats.walked_edges
    stats.final_walkers = walkers
    stats.burn_store = burn
    return sample, stats


def write_sample_csv(sample: SampleGraph, path) -> None:
    """Edge list with a provenance column, sorted for determinism."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target,provenance\n")
        for source, target, provenance in sample.edges_with_provenance():
            fh.write(f"{source},{target},{provenance}\n")


def read_sample_csv(path) -> tuple[DirectedGraph, dict[Edge, str]]:
    ids: list[NodeId] = []
    provenance: dict[Edge, str] = {}

    def add(line: str) -> None:
        parts = line.split(",")
        if len(parts) != 3 or parts[2] not in (WALKED, SYMMETRIC):
            raise ValueError(f"malformed sample row {line!r}")
        edge = _parse_edge(parts[0], parts[1])
        ids.extend(edge)
        provenance[edge] = parts[2]

    _read_lines(path, add, header="source,target,provenance")
    return _graph_from_rows(ids), provenance


def write_growth_csv(stats: RunStats, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("simulated_seconds,edges,nodes\n")
        for t, edges, nodes in stats.growth:
            fh.write(f"{t},{edges},{nodes}\n")


def write_stats_json(stats: RunStats, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_run_state(
    path,
    sample: SampleGraph,
    burn: BurnStore,
    walkers: Sequence[WalkerState],
    clock_now: float,
    seed_pool: SeedPool,
) -> None:
    """Serialize burn store and walker states (plus the sample so far) as JSONL."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        meta = {
            "type": "meta",
            "clock_now": clock_now,
            "seed_pool_state": seed_pool.getstate(),
        }
        fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
        for source, target in burn.log:
            fh.write(json.dumps({"type": "burned", "s": source, "t": target}) + "\n")
        for source, target, provenance in sample.edges_with_provenance():
            fh.write(
                json.dumps({"type": "edge", "s": source, "t": target, "p": provenance}) + "\n"
            )
        for node in sorted(sample.graph.nodes):
            if sample.node_provenance(node) == SEED:
                fh.write(json.dumps({"type": "seed_node", "n": node}) + "\n")
        for w in walkers:
            fh.write(
                json.dumps(
                    {
                        "type": "walker",
                        "id": w.walker_id,
                        "current": w.current,
                        "hops": w.hops_since_jump,
                    }
                )
                + "\n"
            )


def load_run_state(path) -> RunState:
    meta: list[tuple[float, tuple]] = []
    burned: list[Edge] = []
    edges: list[tuple[NodeId, NodeId, str]] = []
    seed_nodes: list[NodeId] = []
    walkers: list[WalkerState] = []

    def add(record: dict) -> None:
        kind = record["type"]
        if kind == "meta":
            _check_fields(record, {"clock_now": (int, float), "seed_pool_state": (list,)})
            # random.Random.getstate(), which JSON turned into nested arrays
            version, internal, gauss_next = record["seed_pool_state"]
            meta.append((record["clock_now"], (version, tuple(internal), gauss_next)))
        elif kind == "burned":
            burned.append((_integer_id(record["s"], "s"), _integer_id(record["t"], "t")))
        elif kind == "edge":
            source, target = _integer_id(record["s"], "s"), _integer_id(record["t"], "t")
            edges.append((source, target, record["p"]))
        elif kind == "seed_node":
            seed_nodes.append(_integer_id(record["n"], "n"))
        elif kind == "walker":
            _check_fields(record, {"id": (int,), "hops": (int,)})
            current = _integer_id(record["current"], "current")
            walkers.append(WalkerState(record["id"], current, record["hops"]))
        else:
            raise ValueError(f"unknown resume record type {kind!r:.80}")

    _read_json_lines(path, add)
    if not meta:
        raise ValueError(f"{path}: missing meta record")
    clock_now, pool_state = meta[-1]
    return RunState(clock_now, pool_state, burned, edges, seed_nodes, walkers)
