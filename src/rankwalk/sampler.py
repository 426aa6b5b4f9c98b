"""Adapted rank-degree walk for directed follow networks.

Logical walkers, stepped round-robin on one thread, hop from a node to its
highest-follower-count, language-matching friend over an unburned edge,
burning each traversed edge and jumping to a fresh random seed at dead ends.
Traversed edges land in the sample together with the reciprocal edge when the
ground truth contains one. A run fetches each account's friends page once and
reads it from its cache on every later visit, so the run's friends calls,
simulated seconds, growth times and call log count only charged calls.

What a run keeps after it returns: the sample, its RunStats and the oracle's
call log. A sample is a SampleGraph, id columns with no Python object per
edge or node, and has one finished form, the run's own and one read back
alike: its DirectedGraph and one PROVENANCES code per edge, aligned with the
graph's out_targets. sample.csv and the resume file's `edge` records are
written from it, and read_sample_csv returns it. The growth curve (a
GrowthCurve), the walk order (RunStats.walk_log) and the call log (a
CallLog) are typed columns too. While it runs, its whole state is one Crawl,
freed when run_sample returns: the sample, the walkers and their cursor, the
exhaustion state, the counters, and the page and profile caches, all
columns over the oracle's profile table. The sample is one byte per friend
slot, a position in the table's friend_ids, which names one follow edge, and
one byte per row for the nodes. The crawl works in rows, the table's and one
for each id with no profile it can meet, so its hot path maps no id to a
row. run_sample is a loop over Crawl.step().
"""

from __future__ import annotations

import json
import math
import operator
import random
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import (
    _INT64_END,
    DirectedGraph,
    NodeId,
    _check_fields,
    _compact_json,
    _distinct,
    _gc_paused,
    _integer_id,
    _read_edge_file,
    _read_json_lines,
)
from .oracle import NotFoundError, ProtectedError, SimulatedOracle

WALKED = "walked"
SYMMETRIC = "symmetric"
# A sample edge's provenance, by its code: PROVENANCES[code].
PROVENANCES = (WALKED, SYMMETRIC)
# The first line of sample.csv, whose rows are source,target,provenance.
SAMPLE_HEADER = "source,target,provenance"


@dataclass
class SamplerConfig:
    """The walk's run parameters, their defaults and their ranges (the API's
    quotas are an ApiBudget's). walker_count must be at least 1, and at least
    one stop condition must be set, none negative or NaN.

    original_rank_degree switches off the two API-practicality adaptations
    (partial burning, static follower ranking) so the walk can be compared
    against the original full-knowledge formulation on reciprocal graphs: every
    sample edge is burned, a walk's reverse edge joins the sample whenever the
    ground truth holds it (even with add_symmetric_edge off), and a friend
    ranks by follower count minus its in-degree in the sample.
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
    original_rank_degree: bool = False

    def __post_init__(self) -> None:
        if self.walker_count < 1:
            raise ValueError(f"walker_count must be >= 1, got {self.walker_count}")
        stops = {
            "max_sample_nodes": self.max_sample_nodes,
            "max_sample_edges": self.max_sample_edges,
            "max_simulated_seconds": self.max_simulated_seconds,
            "max_steps": self.max_steps,
        }
        if all(s is None for s in stops.values()):
            raise ValueError("at least one stop condition must be set")
        for name, stop in stops.items():
            if stop is not None and not stop >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {stop}")


class SeedPool:
    """Uniform draws with replacement from a fixed id pool, reproducible under seed."""

    def __init__(self, nodes: Sequence[NodeId], rng: random.Random | int) -> None:
        if not nodes:
            raise ValueError("seed pool must not be empty")
        self.nodes = list(nodes)
        self._rng = rng if isinstance(rng, random.Random) else random.Random(rng)

    def draw(self) -> NodeId:
        return self.nodes[self.draw_index()]

    def draw_index(self) -> int:
        """The position in `nodes` of the next draw."""
        return self._rng.randrange(len(self.nodes))

    def getstate(self):
        return self._rng.getstate()

    def setstate(self, state) -> None:
        self._rng.setstate(state)


def _account_id(node) -> NodeId:
    """`node` as an int in [0, 2**63), or ValueError."""
    node = operator.index(node)
    if not 0 <= node < _INT64_END:
        raise ValueError(f"node ids must be in [0, 2**63), got {node}")
    return node


def _int64_column(values) -> array:
    """An array('q') holding `values`, copied from one int64 buffer."""
    column = array("q")
    column.frombytes(memoryview(np.ascontiguousarray(values, np.int64)).cast("B"))
    return column


class SampleGraph:
    """A sample: its edges, each with a PROVENANCES code, 0 for `walked` (a
    burned edge) and 1 for `symmetric`, and its seeds. It keeps them as
    columns, with no Python object per edge or node: int64 sources and
    targets, one code byte an edge, and int64 seeds. Its nodes are the ends
    of its edges and its seeds; a seed is a node even when no edge touches
    it, so downstream filters can drop leaf seeds explicitly.

    An edge added twice is one edge with its lowest code, so a symmetric
    edge that is later walked is walked. add_seed flags a node a seed only
    when no edge has registered it yet; a run's sample, handed over by its
    Crawl, and a loaded resume file set the seeds they list.

    `graph`, `codes` and `seeds`, the form every writer reads, are the
    DirectedGraph, nodes and rows in ascending id order, one uint8
    PROVENANCES index per edge, aligned with its out_targets, and the seed
    ids, ascending and int64. They are built with numpy on the first read
    after a change and kept until the next one; num_edges(), num_nodes()
    and == read them. Two samples are == when they hold the same edges with
    the same codes and the same nodes with the same seed flags, in any
    insertion order.
    """

    def __init__(self) -> None:
        self._hold()

    def _hold(self, sources=(), targets=(), codes=(), seeds=()) -> None:
        """Hold these edge ends and codes and these seeds, and nothing else."""
        self._sources, self._targets, self._seeds = map(_int64_column, (sources, targets, seeds))
        self._codes = bytearray(codes)
        self._form: tuple[DirectedGraph, np.ndarray, np.ndarray] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleGraph):
            return NotImplemented
        (graph, codes, seeds), (theirs, their_codes, their_seeds) = self._built(), other._built()
        return graph.ids == theirs.ids and all(map(
            np.array_equal,
            (graph.out_offsets, graph.out_targets, codes, seeds),
            (theirs.out_offsets, theirs.out_targets, their_codes, their_seeds),
        ))

    def _built(self) -> tuple[DirectedGraph, np.ndarray, np.ndarray]:
        """The graph, codes and seeds, built once: the distinct ids are
        sorted, and each edge becomes one key, its ends' indices, times two
        plus its code, so one sort of the keys orders the edges as
        out_targets and puts each edge's lowest code first. Each column is
        sorted apart and the keys in place, so the build's temporaries stay
        at a few arrays as long as the sample."""
        if self._form is None:
            sources, targets, seeds = (
                np.frombuffer(column, np.int64)
                for column in (self._sources, self._targets, self._seeds)
            )
            seeds = _distinct(seeds)
            ids = _distinct(np.concatenate([_distinct(sources), _distinct(targets), seeds]))
            n = len(ids)
            keys = np.searchsorted(ids, sources)
            keys *= n
            keys += np.searchsorted(ids, targets)
            keys *= 2
            keys += np.frombuffer(self._codes, np.uint8)
            keys.sort()
            first = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:] >> 1, keys[:-1] >> 1, out=first[1:])
            keys = keys[first]
            codes = (keys & 1).astype(np.uint8)
            keys >>= 1
            graph = DirectedGraph(ids.tolist(), *np.divmod(keys, n))
            self._form = graph, codes, seeds
        return self._form

    @property
    def graph(self) -> DirectedGraph:
        return self._built()[0]

    @property
    def codes(self) -> np.ndarray:
        return self._built()[1]

    @property
    def seeds(self) -> np.ndarray:
        return self._built()[2]

    def add_seed(self, node: NodeId) -> None:
        """Flag `node` a seed, unless an edge has registered it already: a
        scan of the edge columns."""
        node = _account_id(node)
        if not any(node in np.frombuffer(c, np.int64) for c in (self._sources, self._targets)):
            self._seeds.append(node)
            self._form = None

    def add_edge(self, source: NodeId, target: NodeId, provenance: str) -> None:
        """Collect an edge with its provenance."""
        if provenance not in PROVENANCES:
            raise ValueError(
                f"provenance must be {WALKED!r} or {SYMMETRIC!r}, got {provenance!r:.80}"
            )
        if source == target:
            raise ValueError(f"self-loop rejected: ({source}, {target})")
        source, target = _account_id(source), _account_id(target)
        self._sources.append(source)
        self._targets.append(target)
        self._codes.append(PROVENANCES.index(provenance))
        self._form = None

    def num_edges(self) -> int:
        return self.graph.num_edges()

    def num_nodes(self) -> int:
        return self.graph.num_nodes()


class GrowthCurve:
    """The sample's size over a run: a point (simulated seconds since the run
    started, sample edges, sample nodes) at the start and after each step that
    changed the edge count. The points are kept as three typed columns, float64
    seconds and int64 edges and nodes, at 24 B a point with no object per point.

    It stands in for the list of (seconds, edges, nodes) tuples it replaces:
    len() counts the points, iteration yields the tuples, and two curves are
    == when they hold the same points.
    """

    __slots__ = ("seconds", "edges", "nodes")

    def __init__(self) -> None:
        self.seconds = array("d")
        self.edges = array("q")
        self.nodes = array("q")

    def append(self, seconds: float, edges: int, nodes: int) -> None:
        self.seconds.append(seconds)
        self.edges.append(edges)
        self.nodes.append(nodes)

    def __len__(self) -> int:
        return len(self.seconds)

    def __iter__(self) -> Iterator[tuple[float, int, int]]:
        return zip(self.seconds, self.edges, self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrowthCurve):
            return NotImplemented
        return (self.seconds, self.edges, self.nodes) == (other.seconds, other.edges, other.nodes)

    def __repr__(self) -> str:
        return f"GrowthCurve(points={len(self)})"


@dataclass
class RunStats:
    """What a run did: its counts, its stop reason, `walk_log` (this run's
    walks in step order, each appended as it is walked as its friend slot,
    a position in the oracle's table.friend_ids, int64) and `growth`, the
    GrowthCurve of the sample's size over simulated time. to_dict() holds
    the counts and stop reason only.

    `final_walkers` holds each walker's position (a walker is the account it
    stands on) in the order the walkers step next, so a run resumed from them
    continues the round-robin where this one stopped."""

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
    walk_log: array = field(default_factory=lambda: array("q"))
    growth: GrowthCurve = field(default_factory=GrowthCurve)
    final_walkers: list[NodeId] = field(default_factory=list)

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
    w: int,
    friends_page: Sequence[int],
    crawl: Crawl,
    burned: bytearray,
    config: SamplerConfig,
) -> int | None:
    """Pick the friend with the highest follower count over an unburned edge,
    language-matching when the crawl's filter is on; ties broken by lowest id.
    Returns the pick's position in the page, or None when no friend
    qualifies (the jump signal).

    The walker and its page's friends are rows of the crawl, and the page is
    a prefix of the walker's friend row, so the friend at position i is the
    friend slot friend_offsets[w] + i. A row from no_profile on has no
    profile to rank by and is skipped; the table's rows ascend with ids, so
    the lowest row is the lowest id. Only friends whose profile lookup the
    crawl records as charged are candidates; their follower count and
    language code are read from the table's columns by row, so no id is
    looked up and no ProfileRecord is built.

    `burned` is the crawl's `edges`, one byte per friend slot. An edge is
    burned when its byte is 1 (`walked`), and under original_rank_degree
    when it is not 0, where the score also loses the friend's in-degree in
    the sample. Only a friend that would beat the best so far is checked for
    a burned edge.
    """
    no_profile, looked_up, follower_count, language_codes, language, in_degree = crawl.readers
    start = crawl.friend_offsets[w]
    original = config.original_rank_degree
    best = best_row = None
    best_score = 0
    for i, v in enumerate(friends_page):
        if v >= no_profile or not looked_up[v]:
            continue
        if language is not None and language_codes[v] != language:
            continue
        score = follower_count[v]
        if original:
            score -= in_degree[v]
        if best is not None and (score < best_score or (score == best_score and v > best_row)):
            continue
        code = burned[start + i]
        if code == 1 or (original and code):
            continue
        best, best_row, best_score = i, v, score
    return best


@dataclass
class RunState:
    """Serializable mid-run snapshot for interrupted-run continuation: the
    sample so far, its edges with their provenance and its nodes with their
    seed flags, the walkers' positions in the order they step next, and the
    rate limiters' charges that still count, as
    SimulatedOracle.window_charges() lists them. `path` names the resume
    file it was loaded from in the errors of the run it starts.

    `sample` is the very SampleGraph the resumed run hands its sample back
    into, so one RunState starts one run: Crawl takes the sample and sets
    `sample` to None, and a second Crawl from the same state raises
    ValueError."""

    clock_now: float
    seed_pool_state: object
    sample: SampleGraph | None
    walkers: list[NodeId]
    charges: list[tuple[str, int, list[float]]] = field(default_factory=list)
    path: object = field(default=None, compare=False)


class Crawl:
    """The whole state of one run: the sample, the walkers and the cursor
    (walkers[i] is the position of walker i, and walkers[cursor] steps
    next), the seed pool, the exhaustion state, the caches, the counters at
    the start and the RunStats, whose walk_log each walk appends to.
    run_sample calls step() until stop_reason() names a reason, then
    finish(), and takes `sample`.

    The crawl works in rows, so its hot path maps no id to a row. Each run
    numbers once every account it can meet: the rows of the oracle's
    ProfileTable come first, and from no_profile, the table's length, on,
    each distinct friend, pool, resumed-walker or resumed-seed id with no
    profile gets one more row, in ascending id order. ids[row] is the id of
    any row: a view of the table's id column, or one concatenation when
    some id has no profile. A position is the row of the account a walker
    stands on. friend_rows holds the row of each of the table's friend ids,
    int32, and pool_rows the row of each seed-pool id.

    The sample is kept as bits over the table's friend slots, with no
    Python object per edge or node. A slot is a position in
    table.friend_ids: a walk from w to v is a slot of w's friend row,
    because w's page is a prefix of it, a symmetric edge (v, w) is the slot
    of w in v's row, and a friend row holds no repeats, so a slot names one
    edge. edges[slot] is 0 for an edge not in the sample, 1 for a walked
    one and 2 for a symmetric one. nodes[row] is 0 for an account not in
    the sample, 1 for one that is and 2 for one first registered as a seed.
    edge_count and node_count count them, and under original_rank_degree
    in_degree[row] counts the sample edges into each row (None otherwise).
    `sample` hands the sample over as a SampleGraph; walk_log holds the
    walk order as slots.

    A node a step jumped from yields a jump on every later visit (pages and
    profiles are fixed, the sample only grows). not_jumped holds one byte
    per row, 1 for a pool account no step has jumped from yet, counted by
    not_jumped_count. jump_run counts the steps since the last walk.

    The caches are per-row columns, 9 B a row, with no Python object per
    page or profile. page_length[row] is the length of the page that row's
    account was served by its one charged get_friends call, -1 before it; a
    revisit reads back that prefix of the friend row. looked_up[row] is 1
    once the account's profile lookup was charged, whether or not it has a
    profile.

    `readers` binds once what select_target reads on each call: no_profile,
    looked_up, the follower_count and language-code columns as memoryviews
    (an item is a Python scalar in about half the time ndarray.item takes),
    the target language's code, None with the filter off and -1 when no
    account has it, and in_degree.

    A resumed run sets the slot of each edge of the RunState's sample, with
    its code, and its nodes, with the sample's seeds flagged; an edge that
    is no slot of this world, its source without a profile or its target not
    on the source's friend list, raises ValueError naming the resume file.
    It takes the sample from the RunState, which then starts no other run (a
    second Crawl from it raises ValueError), and hands the run's sample back
    into that SampleGraph. It gives the saved rate-limit charges back to the
    oracle, so the per-key budget holds across the resume, and starts at the
    first saved walker. The caches are not in the resume file, so it fetches
    its pages and profiles again.
    """

    def __init__(
        self,
        config: SamplerConfig,
        oracle: SimulatedOracle,
        seed_pool: SeedPool,
        resume: RunState | None = None,
    ) -> None:
        if resume is not None and resume.sample is None:
            raise ValueError("this RunState has started a run already; load the resume file again")
        self.config, self.oracle, self.seed_pool = config, oracle, seed_pool
        table = oracle.profiles
        self.no_profile = n = len(table)
        sample = SampleGraph() if resume is None else resume.sample
        nodes = [
            table.friend_ids, np.array(seed_pool.nodes, np.int64),
            np.array([] if resume is None else resume.walkers, np.int64),
            np.array(sample._seeds, np.int64),
        ]
        rows = [table.rows(column) for column in nodes]
        unprofiled = [column[r == n] for column, r in zip(nodes, rows)]
        extra = _distinct(np.concatenate(unprofiled))
        for r, column in zip(rows, unprofiled):
            r[r == n] = n + np.searchsorted(extra, column)
        self.ids = ids = memoryview(np.concatenate([table.ids, extra]) if len(extra) else table.ids)
        self.friend_offsets = memoryview(table.friend_offsets)
        self.friend_rows, self.pool_rows = memoryview(rows[0]), memoryview(rows[1])
        self.not_jumped = bytearray(len(ids))
        np.frombuffer(self.not_jumped, np.uint8)[rows[1]] = 1
        self.not_jumped_count = self.not_jumped.count(1)
        self.jump_run = 0

        self.edges = bytearray(len(table.friend_ids))
        self.nodes = bytearray(len(ids))
        self.in_degree = array("i", [0]) * len(ids) if config.original_rank_degree else None
        self._sample = sample
        self._set_slots(sample, rows[3], resume)
        if resume is not None:
            resume.sample = None
            oracle.clock.advance_to(resume.clock_now)
            oracle.restore_charges(resume.charges)
            seed_pool.setstate(resume.seed_pool_state)
            self.walkers = rows[2].tolist()
        else:
            self.walkers = [self.draw() for _ in range(config.walker_count)]
        self.cursor = 0

        self.page_length = array("q", [-1]) * len(ids)
        self.looked_up = bytearray(len(ids))
        language = None
        if config.language_filter_enabled:
            languages, target = table.languages, config.target_language
            language = languages.index(target) if target in languages else -1
        self.readers = (
            n, self.looked_up, memoryview(table.follower_count),
            memoryview(table.language_codes), language, self.in_degree,
        )

        self.stats = RunStats()
        self.friends_calls_start = oracle.calls_by_endpoint[oracle.FRIENDS]
        self.profile_calls_start = oracle.calls_by_endpoint[oracle.PROFILES]
        self.clock_start = oracle.clock.now
        self.stats.growth.append(0.0, self.edge_count, self.node_count)

    def _set_slots(self, sample: SampleGraph, seed_rows: np.ndarray, resume: RunState | None):
        """Set the slot of each edge of `sample`, a repeat to its lowest
        code, and the bytes of its nodes, with the rows `seed_rows` of its
        seeds flagged, then empty `sample`. Each edge's slot is looked up in
        its source's friend row, one edge at a time."""
        table, offsets, edges = self.oracle.profiles, self.friend_offsets, self.edges
        source_rows = table.rows(np.frombuffer(sample._sources, np.int64)).tolist()
        for source, target, row, code in zip(
            sample._sources, sample._targets, source_rows, sample._codes
        ):
            friends = [] if row == self.no_profile else table.friends(row).tolist()
            if target not in friends:
                raise ValueError(
                    f"{resume.path or 'resume state'}: edge {source},{target} is not in the "
                    f"profiles: no profile {source} lists friend {target}"
                )
            slot = offsets[row] + friends.index(target)
            edges[slot] = min(edges[slot] or 3, code + 1)
        sample._hold()
        slots = np.flatnonzero(np.frombuffer(edges, np.uint8))
        targets = np.asarray(self.friend_rows)[slots]
        nodes = np.frombuffer(self.nodes, np.uint8)
        nodes[self._slot_sources(slots)] = nodes[targets] = 1
        nodes[seed_rows] = 2
        self.edge_count, self.node_count = len(slots), int(np.count_nonzero(nodes))
        if self.in_degree is not None:
            np.frombuffer(self.in_degree, np.int32)[:] = np.bincount(targets, minlength=len(nodes))

    def _slot_sources(self, slots: np.ndarray) -> np.ndarray:
        """The row whose friend row holds each slot of `slots`."""
        rows = np.searchsorted(np.asarray(self.friend_offsets), slots, side="right")
        rows -= 1
        return rows

    @property
    def sample(self) -> SampleGraph:
        """The sample so far, handed over from the slots into the crawl's
        SampleGraph, the RunState's own for a resumed run: its edges in slot
        order and its seeds. One id column is made at a time, so no more
        than a few int64 arrays as long as the sample are alive at once."""
        ids, sample = np.asarray(self.ids), self._sample
        edges = np.frombuffer(self.edges, np.uint8)
        slots = np.flatnonzero(edges)
        seeds = ids[np.flatnonzero(np.frombuffer(self.nodes, np.uint8) == 2)]
        sample._hold(codes=edges[slots] - 1, seeds=seeds)
        sample._sources = _int64_column(ids[self._slot_sources(slots)])
        sample._targets = _int64_column(ids[np.asarray(self.friend_rows)[slots]])
        return sample

    def draw(self) -> int:
        """Draw a seed from the pool, register it in the sample and return its
        position."""
        row = self.pool_rows[self.seed_pool.draw_index()]
        if not self.nodes[row]:
            self.nodes[row] = 2
            self.node_count += 1
        return row

    def walker_ids(self) -> list[NodeId]:
        """The id of the account each walker stands on, in walkers order."""
        ids = self.ids
        return [ids[w] for w in self.walkers]

    def look_up(self, page: list[int]) -> None:
        """Look up together, in page order, the friends of a page whose
        profile lookup is not recorded, a friend with no profile among them,
        and record them, so no friend is asked for twice."""
        ids, looked_up = self.ids, self.looked_up
        missing = []
        for row in page:
            if not looked_up[row]:
                looked_up[row] = 1
                missing.append(ids[row])
        if missing:
            self.oracle.get_profiles(missing)

    def _join(self, source: int, target: int) -> None:
        """Count a new sample edge from row `source` to row `target`."""
        self.edge_count += 1
        nodes = self.nodes
        for row in (source, target):
            if not nodes[row]:
                nodes[row] = 1
                self.node_count += 1
        if self.in_degree is not None:
            self.in_degree[target] += 1

    def step(self) -> None:
        """One step of the walker at the cursor, which then moves to the next
        walker: read the friends page of the account it stands on, walk the
        best eligible edge into the sample, or jump to a fresh seed when none
        qualifies. A step that changes the edge count adds a growth point.

        The page is read back from friend_rows when page_length holds its
        length, else it comes from a charged get_friends call whose length is
        recorded, and the page's friends not looked up yet are (look_up). A
        protected or unknown account is never cached: each visit asks again,
        uncharged, and jumps. select_target skips a friend with no profile.

        A walk sets its slot to walked and appends the slot to the walk_log,
        a jump neither. When the ground truth holds the reverse edge, its
        slot, the walker's position in the pick's friend row, joins as
        symmetric unless it is in the sample already. select_target skips
        burned edges, so a pick that select_target's burn rule excludes
        means an edge would be walked twice and aborts the run.
        """
        oracle, walkers, cursor = self.oracle, self.walkers, self.cursor
        w = walkers[cursor]
        page_length = self.page_length
        if page_length[w] >= 0:
            start = self.friend_offsets[w]
            page = self.friend_rows[start : start + page_length[w]].tolist()
        else:
            try:
                length = len(oracle.get_friends(self.ids[w]).friends)
            except (NotFoundError, ProtectedError):
                page = None
            else:
                page_length[w] = length
                start = self.friend_offsets[w]
                page = self.friend_rows[start : start + length].tolist()
                self.look_up(page)
        i = None if page is None else select_target(w, page, self, self.edges, self.config)
        if i is None:
            v = self.draw()
            if self.not_jumped[w]:
                self.not_jumped[w] = 0
                self.not_jumped_count -= 1
            self.jump_run += 1
        else:
            v, slot = page[i], start + i
            config, ids, edges = self.config, self.ids, self.edges
            original = config.original_rank_degree
            code = edges[slot]
            if code == 1 or (original and code):
                raise RuntimeError(f"edge {(ids[w], ids[v])} selected after it was burned")
            if not code:
                self._join(w, v)
            edges[slot] = 1  # walked
            self.stats.walk_log.append(slot)
            if (config.add_symmetric_edge or original) and oracle.follows(ids[v], ids[w]):
                offsets = self.friend_offsets
                row = self.friend_rows[offsets[v] : offsets[v + 1]].tolist()
                reverse = offsets[v] + row.index(w)
                if not edges[reverse]:
                    edges[reverse] = 2  # symmetric
                    self._join(v, w)
            self.jump_run = 0
        walkers[cursor] = v
        self.cursor = (cursor + 1) % len(walkers)
        stats = self.stats
        stats.steps += 1
        growth = stats.growth
        if self.edge_count != growth.edges[-1]:
            growth.append(oracle.clock.now - self.clock_start, self.edge_count, self.node_count)

    def stop_reason(self) -> str | None:
        """The first stop condition that holds, or None while the run goes on.
        Once every seed-pool node has jumped and the last len(walkers) steps
        all jumped, each walker stands on a pool node and no step can add an
        edge again: the run is "exhausted"."""
        config, stats = self.config, self.stats
        if config.max_sample_edges is not None and self.edge_count >= config.max_sample_edges:
            return "max_sample_edges"
        if config.max_sample_nodes is not None and self.node_count >= config.max_sample_nodes:
            return "max_sample_nodes"
        if (
            config.max_simulated_seconds is not None
            and self.oracle.clock.now - self.clock_start >= config.max_simulated_seconds
        ):
            return "max_simulated_seconds"
        if config.max_steps is not None and stats.steps >= config.max_steps:
            return "max_steps"
        if self.jump_run >= len(self.walkers) and not self.not_jumped_count:
            return "exhausted"
        return None

    def finish(self) -> RunStats:
        """The run's RunStats, with its counts and stop reason filled in and
        `final_walkers` the walkers' ids in the order they step next; each
        step() has already appended its walk, if any, to `walk_log`."""
        stats, oracle = self.stats, self.oracle
        stats.jumps = stats.steps - len(stats.walk_log)
        stats.stop_reason = self.stop_reason() or ""
        stats.friends_calls = oracle.calls_by_endpoint[oracle.FRIENDS] - self.friends_calls_start
        stats.profile_calls = oracle.calls_by_endpoint[oracle.PROFILES] - self.profile_calls_start
        stats.simulated_seconds = oracle.clock.now - self.clock_start
        stats.sample_nodes, stats.sample_edges = self.node_count, self.edge_count
        stats.symmetric_edges = self.edges.count(2)
        stats.walked_edges = stats.sample_edges - stats.symmetric_edges
        walkers, cursor = self.walker_ids(), self.cursor
        stats.final_walkers = walkers[cursor:] + walkers[:cursor]
        return stats


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

    The run's state is one Crawl, dropped when this call returns. It records
    every friends page and profile lookup the run was charged for, so an
    account's page costs one charged call per run and a friend's profile one
    lookup, even when it came back empty; a protected or unknown account is
    refused, uncharged, on every visit. A resumed run continues the
    round-robin where the saved run stopped, with the saved rate-limit
    charges, returns its sample in the RunState's own SampleGraph, and
    fetches its pages and profiles again.

    The steps run with the cyclic GC paused: they build no reference cycles,
    so a collection during the walk finds nothing to free.
    """
    crawl = Crawl(config, oracle, seed_pool, resume)
    with _gc_paused():
        while crawl.stop_reason() is None:
            crawl.step()
    stats = crawl.finish()
    return crawl.sample, stats


def write_sample_csv(sample: SampleGraph, path) -> None:
    """The sample's graph and codes as an edge list with a provenance column,
    in edges() order: ascending (source, target)."""
    edges, codes = sample.graph.edges(), sample.codes.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for (source, target), code in zip(edges, codes):
            fh.write(f"{source},{target},{PROVENANCES[code]}\n")


def read_sample_csv(path) -> tuple[DirectedGraph, np.ndarray]:
    """The sample graph, nodes and each row in ascending id order whatever the
    file's order, and each edge's provenance code, uint8 and aligned with its
    out_targets: a SampleGraph's graph and codes, so a sample written and
    read back equals them array for array. The one reader of read_edge_list
    reads it, into one column of ids and one provenance byte a row, with no
    object per row. An edge listed twice is rejected, with the line of its
    repeat: write_sample_csv writes each edge once."""
    return _read_edge_file(path, SAMPLE_HEADER, PROVENANCES, "malformed sample row {!r}")


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
    walkers: Sequence[NodeId],
    clock_now: float,
    seed_pool: SeedPool,
    charges: Iterable[tuple[str, int, Sequence[float]]] = (),
) -> None:
    """Serialize the sample so far and the walkers as compact JSONL: one
    `charges` record per (endpoint, key, times) of `charges`, the rate
    limiters' charges that still count (SimulatedOracle.window_charges()),
    one `edge` record per sample edge with its provenance, in ascending
    order (the walked ones are the burned edges), the seed nodes, and one
    `walker` record per walker, holding the account it stands on, in the
    order they step next."""
    edges, codes = sample.graph.edges(), sample.codes.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        meta = {
            "type": "meta",
            "clock_now": clock_now,
            "seed_pool_state": seed_pool.getstate(),
        }
        fh.write(_compact_json(meta) + "\n")
        for endpoint, key, times in charges:
            record = {"type": "charges", "endpoint": endpoint, "key": key, "t": list(times)}
            fh.write(_compact_json(record) + "\n")
        for (source, target), code in zip(edges, codes):
            record = {"type": "edge", "s": source, "t": target, "p": PROVENANCES[code]}
            fh.write(_compact_json(record) + "\n")
        for node in sample.seeds.tolist():
            fh.write(_compact_json({"type": "seed_node", "n": node}) + "\n")
        for w in walkers:
            fh.write(_compact_json({"type": "walker", "current": w}) + "\n")


def load_run_state(path) -> RunState:
    """Read a save_run_state file. Each `edge` record goes straight into the
    columns of the RunState's SampleGraph, the sample the resumed run
    continues. A `seed_node` record flags its node a seed even when an edge
    registered the node first, as the file lists edges before seeds. Files
    written before the walkers were saved in step order load too: their
    `burned` records repeat walked `edge` records and are skipped, and their
    walker records are in `id` order, the order those runs resumed them in.
    A walker's `id`, like any other extra field, is ignored. An edge listed
    twice is rejected with the line of its repeat, as read_sample_csv
    rejects it; the sample's build finds a repeat once the file is read,
    so a bad record after the repeat is reported first. A file without
    `charges` records, as older versions wrote, resumes with no charge in
    the limiters. Whether each edge is one of the world's is checked by the
    Crawl the RunState starts."""
    meta: list[tuple[float, tuple]] = []
    charges: list[tuple[str, int, list[float]]] = []
    sample = SampleGraph()
    walkers: list[NodeId] = []

    def add(record: dict) -> None:
        kind = record["type"]
        if kind == "meta":
            _check_fields(record, {"clock_now": (int, float), "seed_pool_state": (list,)})
            # random.Random.getstate(), which JSON turned into nested arrays
            version, internal, gauss_next = record["seed_pool_state"]
            state = (version, tuple(internal), gauss_next)
            random.Random().setstate(state)  # rejects a state of the wrong size or types
            clock_now = float(record["clock_now"])
            if not 0.0 <= clock_now < math.inf:  # NaN fails too
                raise ValueError(
                    f"field 'clock_now': expected a finite number >= 0, got {clock_now!r}"
                )
            meta.append((clock_now, state))
        elif kind == "charges":
            _check_fields(record, {"endpoint": (str,), "key": (int,), "t": (list,)})
            endpoint, key, times = record["endpoint"], record["key"], record["t"]
            if endpoint not in (SimulatedOracle.FRIENDS, SimulatedOracle.PROFILES):
                raise ValueError(f"field 'endpoint': unknown endpoint {endpoint!r:.80}")
            if key < 0:
                raise ValueError(f"field 'key': expected an integer >= 0, got {key}")
            if not all(type(t) in (int, float) and 0.0 <= t < math.inf for t in times):
                raise ValueError(f"field 't': expected finite numbers >= 0, got {times!r:.80}")
            charges.append((endpoint, key, [float(t) for t in times]))
        elif kind == "edge":
            source, target = _integer_id(record["s"], "s"), _integer_id(record["t"], "t")
            if source == target:
                raise ValueError(f"self-loop {source},{target}")
            if record["p"] not in PROVENANCES:
                raise ValueError(
                    f"field 'p': expected {WALKED!r} or {SYMMETRIC!r}, got {record['p']!r:.80}"
                )
            sample.add_edge(source, target, record["p"])
        elif kind == "seed_node":
            sample._seeds.append(_integer_id(record["n"], "n"))
        elif kind == "walker":
            walkers.append(_integer_id(record["current"], "current"))
        elif kind != "burned":  # an older file's copy of a walked edge record
            raise ValueError(f"unknown resume record type {kind!r:.80}")

    _read_json_lines(path, add)
    if sample.num_edges() < len(sample._codes):
        _read_json_lines(path, _edge_repeats())
    if not meta:
        raise ValueError(f"{path}: missing meta record")
    if not walkers:
        raise ValueError(f"{path}: no walker records")
    clock_now, pool_state = meta[-1]
    late = [t for _, _, times in charges for t in times if t > clock_now]
    if late:
        raise ValueError(f"{path}: a charge at t={late[0]!r} is after clock_now {clock_now!r}")
    return RunState(clock_now, pool_state, sample, walkers, charges, path)


def _edge_repeats():
    """A parse for _read_json_lines that raises at the first `edge` record
    of a resume file that repeats an earlier one."""
    listed: set[tuple[NodeId, NodeId]] = set()

    def check(record: dict) -> None:
        if record["type"] == "edge":
            edge = record["s"], record["t"]
            if edge in listed:
                raise ValueError(f"edge {edge[0]},{edge[1]} listed twice")
            listed.add(edge)

    return check
