"""Directed graph core: representation, k-core, PageRank, edge-list and profile I/O."""

from __future__ import annotations

import gc
import json
import logging
import math
import re
import struct
import warnings
from array import array
from bisect import bisect_left
from collections.abc import Set, ValuesView
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, product, repeat
from operator import attrgetter, itemgetter
from types import NoneType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

logger = logging.getLogger(__name__)

NodeId = int


# Account ids, follower counts and status counts are integers in [0, 2**63),
# as the platform API's signed 64-bit user ids are: each fits an int64.
_INT64_END = 1 << 63
_ID_TEXT = re.compile(r"\s*\+?([0-9]+)\s*")


def parse_id(text: str) -> NodeId:
    """An account id written as text: ASCII digits, at most one leading '+' and
    surrounding whitespace, for a value below 2**63; anything else raises
    ValueError naming the text."""
    match = _ID_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"expected a non-negative integer account id, got {text!r}")
    node = int(match[1])
    if node >= _INT64_END:
        raise ValueError(f"expected an account id < 2**63, got {text!r}")
    return node


def _integer_id(value, field: str) -> NodeId:
    """An account id from JSON: an integer in [0, 2**63); a bool, float or
    string is rejected."""
    if type(value) is not int or value < 0:
        raise TypeError(f"field {field!r}: expected a JSON integer >= 0, got {value!r:.80}")
    if value >= _INT64_END:
        raise ValueError(f"field {field!r}: expected an integer < 2**63, got {value}")
    return value


def _check_fields(record: dict, fields: Mapping[str, tuple[type, ...]]) -> None:
    """Raise for the first field of `fields` that `record` lacks or holds with a
    JSON type not listed for it. A field that allows null may be missing."""
    for name, types in fields.items():
        value = record.get(name) if NoneType in types else record[name]
        if type(value) not in types:
            expected = " or ".join("null" if t is NoneType else t.__name__ for t in types)
            raise TypeError(f"field {name!r}: expected {expected}, got {value!r:.80}")


@contextmanager
def _open_text(path) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8, read
    anywhere in the with-block, raise ValueError("<path>: line N: <reason>")
    for the first line that holds them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> ValueError:
    # The decoder works on blocks, so its error does not say which line failed.
    # No UTF-8 sequence holds a line-break byte, so the lines decode one by one.
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as line_exc:
            return ValueError(f"{path}: line {lineno}: {line_exc}")
    return ValueError(f"{path}: {exc}")


def _read_lines(path, parse: Callable[[str], object], header: str | None = None) -> None:
    """Call `parse` on each non-blank line of a UTF-8 text file, stripped, with
    the cyclic collector paused; with a header, line 1 must equal it. A
    ValueError, TypeError, KeyError (a missing field) or OverflowError from
    `parse` is raised again as ValueError("<path>: line N: <reason>").
    """
    with _gc_paused(), _open_text(path) as fh:
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


_scan_json = json.JSONDecoder().scan_once
# json.dumps(value, separators=(",", ":")) without a new encoder per call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _decode_json(line: str):
    """json.loads(line) for a stripped line. The scanner decodes a valid line
    without json.loads's checks; any other line goes to json.loads, so every
    error (a leading BOM, trailing data) carries json.loads's own text."""
    try:
        value, end = _scan_json(line, 0)
    except StopIteration:
        end = None
    return value if end == len(line) else json.loads(line)


def _read_json_lines(path, parse: Callable[[dict], object]) -> None:
    """_read_lines for JSONL: every non-blank line must hold a JSON object."""

    def parse_line(line: str) -> None:
        try:
            record = _decode_json(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON ({exc})") from None
        if type(record) is not dict:
            raise TypeError(f"expected a JSON object, got {record!r:.80}")
        parse(record)

    _read_lines(path, parse_line)


# The JSON types each profile field accepts, in the order write_profiles
# writes them; int never matches a JSON boolean. last_status_at, the one field
# that allows null, may be missing. node and each friend must also pass
# _integer_id.
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
_required_values = itemgetter(*list(PROFILE_FIELDS)[:-1])  # all but last_status_at
_INT_ONLY = frozenset({int})


def _check_profile(
    node: NodeId, follower_count: int, friends: list[NodeId], created_at: float,
    status_count: int, last_status_at: float | None,
) -> None:
    """Raise ValueError for a profile no account can have: a count outside
    [0, 2**63), a time that is not finite, or a friend list that holds the
    account itself or one friend twice. add() checks the range of the id and
    of the friend ids as it stores them."""
    if not (0 <= follower_count < _INT64_END and 0 <= status_count < _INT64_END):
        for name, count in (("follower_count", follower_count), ("status_count", status_count)):
            if count < 0:
                raise ValueError(f"profile {node}: negative {name}")
            if count >= _INT64_END:
                raise ValueError(f"profile {node}: {name} must be < 2**63, got {count}")
    # comparisons, not math.isfinite, so an int too large for a float is left
    # to the packing, which raises OverflowError for it
    if not -math.inf < created_at < math.inf:
        raise ValueError(f"profile {node}: created_at must be finite, got {created_at}")
    if last_status_at is not None and not -math.inf < last_status_at < math.inf:
        raise ValueError(f"profile {node}: last_status_at must be finite, got {last_status_at}")
    if node in friends:
        raise ValueError(f"profile {node}: lists itself as a friend")
    if len(set(friends)) != len(friends):
        raise ValueError(f"profile {node}: duplicate entries in friend list")


class ProfileRecord:
    """One account of a ProfileTable: the eight fields of a profiles.jsonl
    line, with the Python types read_profiles gives them (int, float, None, a
    list of ints), copied from the table's columns, the id column included:
    a record is built only when it is read, so the table keeps no Python int
    per account.

    friends_recent_first is read from the table's friend rows on each access,
    so a record holds no friend list. A crawl keeps no records: its Crawl
    reads the table's columns by row.
    Two records are equal when their eight values are.
    """

    __slots__ = (
        "node", "follower_count", "language", "protected", "created_at", "status_count",
        "last_status_at", "_table", "_row",
    )

    def __init__(self, table: ProfileTable, row: int) -> None:
        (ids, follower_count, language_codes, protected, created_at, status_count,
         last_status_at, _) = table._views
        self.node = ids[row]
        self.follower_count = follower_count[row]
        self.language = table.languages[language_codes[row]]
        self.protected = protected[row]
        self.created_at = created_at[row]
        self.status_count = status_count[row]
        last = last_status_at[row]
        self.last_status_at = None if math.isnan(last) else last
        self._table = table
        self._row = row

    @property
    def friends_recent_first(self) -> list[NodeId]:
        return self._table.friends(self._row).tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileRecord):
            return NotImplemented
        return _profile_attributes(self) == _profile_attributes(other)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in PROFILE_FIELDS)
        return f"ProfileRecord({values})"


_profile_attributes = attrgetter(*PROFILE_FIELDS)


class ProfileTable(Mapping[NodeId, ProfileRecord]):
    """A read-only snapshot of profiles, stored as columns: the one profile
    store, which the generator and read_profiles return and SimulatedOracle
    serves, at ~50 B per account plus 8 B per friend, with no Python object
    per account.

    Row i holds the account ids[i]. ids is a read-only int64 column, each id
    in [0, 2**63), ascending, and an id is mapped to its row by bisecting it
    (rows() maps an array of ids with one vector search); a crawl works in
    rows, so it maps no id on its hot path. The scalar fields are numpy
    columns by row: follower_count and status_count int64, created_at
    float64, protected bool, language_codes small ints into the list
    languages of the distinct language strings, and last_status_at float64,
    NaN where the account's last_status_at is None (a given one is always
    finite). The friend lists are one set of compressed sparse rows in
    recency order: friends(i), that is
    friend_ids[friend_offsets[i]:friend_offsets[i + 1]], holds row i's friend
    ids, int64.

    table[node] and each record of values() are a ProfileRecord built per
    call; values() walks the rows, and loops over every account read the
    columns instead. Every table is built by _ProfileColumns, through
    read_profiles, ProfileTable.from_records or generate.build_profiles,
    never by hand.
    """

    __slots__ = (
        "ids", "follower_count", "languages", "language_codes", "protected", "created_at",
        "status_count", "last_status_at", "friend_offsets", "friend_ids", "_views",
    )

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> ProfileTable:
        """The table of `records`, in any order, each a dict shaped as one
        profiles.jsonl line; a record that read_profiles would reject raises
        the same error here, without the path and line."""

        def add_all(add: Callable[[dict], None]) -> None:
            for record in records:
                add(record)

        return _profile_table(add_all)

    def __getitem__(self, node: NodeId) -> ProfileRecord:
        row = _index_in(self._views[0], node)
        if row is None:
            raise KeyError(node)
        return ProfileRecord(self, row)

    def __contains__(self, node: object) -> bool:
        return _index_in(self._views[0], node) is not None

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._views[0])

    def __len__(self) -> int:
        return len(self.ids)

    def values(self) -> ValuesView[ProfileRecord]:
        return _ProfileValues(self)

    def friends(self, row: int) -> np.ndarray:
        """Row `row`'s friend ids, most recently followed first (a view)."""
        offsets = self._views[-1]
        return self.friend_ids[offsets[row] : offsets[row + 1]]

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The row of each id of the int64 array `nodes`, int32 (a table
        holds fewer than 2**31 accounts), and len(self) for an id with no
        row. Blocks of _ROW_BLOCK ids are searched in turn, so no int64 array
        as long as `nodes` is made."""
        n = len(self.ids)
        rows = np.full(len(nodes), n, dtype=np.int32)
        if not n:
            return rows
        for start in range(0, len(nodes), _ROW_BLOCK):
            block = nodes[start : start + _ROW_BLOCK]
            found = np.searchsorted(self.ids, block)
            np.minimum(found, n - 1, out=found)
            hit = self.ids[found] == block
            rows[start : start + len(block)][hit] = found[hit]
        return rows

    def has_language(self, language: str) -> np.ndarray:
        """A bool per row: whether that account's language is `language`."""
        if language not in self.languages:
            return np.zeros(len(self.ids), dtype=bool)
        return self.language_codes == self.languages.index(language)

    def __repr__(self) -> str:
        return f"ProfileTable(accounts={len(self.ids)}, friends={len(self.friend_ids)})"


# The ids ProfileTable.rows searches for at a time.
_ROW_BLOCK = 1 << 16


class _ProfileValues(ValuesView):
    def __iter__(self) -> Iterator[ProfileRecord]:
        table = self._mapping
        return map(ProfileRecord, repeat(table), range(len(table)))


# The scalar fields of one added profile, packed by _ProfileColumns.add into
# one row of its scalars buffer, and the numpy type that reads the rows back.
_pack_scalars = struct.Struct("<qqqqdd?").pack
_SCALAR_ROW = np.dtype([
    ("follower_count", "<i8"), ("status_count", "<i8"), ("language_code", "<i8"),
    ("friend_count", "<i8"), ("created_at", "<f8"), ("last_status_at", "<f8"),
    ("protected", "?"),
])


class _RepeatedId(ValueError):
    """A profile whose id an earlier one has; `position` counts the profiles
    added before it."""

    def __init__(self, node: NodeId, position: int) -> None:
        super().__init__(f"duplicate node id {node}")
        self.position = position


class _ProfileColumns:
    """Builds a ProfileTable one profile at a time, in any id order: each
    profile's id is appended to one array('q'), its scalar fields become one
    packed row of a bytes buffer and its friends are appended to one
    array('q'), so no per-profile object is kept; build() sorts the rows by
    id. add() runs _check_profile on every profile; add_record() also checks
    the JSON types of a record first. A repeated id is found by sorting the
    ids, in build() or, after a later profile's error, in order()."""

    __slots__ = ("ids", "languages", "scalars", "friend_ids")

    def __init__(self) -> None:
        self.ids = array("q")  # in the order added
        self.languages: dict[str, int] = {}  # language -> its code
        self.scalars = bytearray()
        self.friend_ids = array("q")

    def add(
        self, node: NodeId, follower_count: int, friends: list[NodeId], language: str,
        protected: bool, created_at: float, status_count: int, last_status_at: float | None,
    ) -> None:
        if node >= _INT64_END:
            _integer_id(node, "node")
        # the id goes first, so that a repeated id is the first error order() names
        self.ids.append(node)
        _check_profile(node, follower_count, friends, created_at, status_count, last_status_at)
        code = self.languages.setdefault(language, len(self.languages))
        self.scalars += _pack_scalars(
            follower_count, status_count, code, len(friends), created_at,
            math.nan if last_status_at is None else last_status_at, protected,
        )
        try:
            self.friend_ids.fromlist(friends)  # all or nothing
        except OverflowError:  # a friend id outside int64, which no account can have
            for friend in friends:
                _integer_id(friend, "friends_recent_first")
            raise

    def add_record(self, record: dict) -> None:
        """add() for one record shaped as a profiles.jsonl line: a value of a
        JSON type that PROFILE_FIELDS does not allow is rejected, not coerced,
        and so is a negative id."""
        (node, follower_count, friends, language, protected, created_at,
         status_count) = _required_values(record)
        last_status_at = record.get("last_status_at")
        signature = (
            type(node), type(follower_count), type(friends), type(language),
            type(protected), type(created_at), type(status_count), type(last_status_at),
        )
        if signature not in _PROFILE_SIGNATURES:
            _check_fields(record, PROFILE_FIELDS)
        if node < 0:
            _integer_id(node, "node")
        # one pass in C for the usual list of ints >= 0, _integer_id's message otherwise
        if friends and not (set(map(type, friends)) == _INT_ONLY and min(friends) >= 0):
            for friend in friends:
                _integer_id(friend, "friends_recent_first")
        self.add(
            node, follower_count, friends, language, protected, created_at, status_count,
            last_status_at,
        )

    def order(self) -> np.ndarray | None:
        """The position of each added id in ascending id order, or None when
        they were added ascending, as write_profiles writes them. Raises
        _RepeatedId for the first profile whose id an earlier one has: a
        stable sort lists the repeats of an id after its first profile."""
        ids = np.frombuffer(self.ids, np.int64)
        if np.all(ids[1:] > ids[:-1]):
            return None
        order = np.argsort(ids, kind="stable")
        repeats = np.flatnonzero(ids[order[1:]] == ids[order[:-1]])
        if repeats.size:
            position = int(order[repeats + 1].min())
            raise _RepeatedId(self.ids[position], position)
        return order

    def build(self) -> ProfileTable:
        """The table, rows in ascending id order; add nothing after this."""
        order = self.order()
        ids = np.frombuffer(self.ids, np.int64)
        n = len(ids)
        added = np.frombuffer(self.scalars, _SCALAR_ROW)
        friend_ids = np.frombuffer(self.friend_ids, np.int64)
        if order is None:
            scalars = added
        else:
            ids = ids[order]
            scalars = added[order]
            rank = np.empty(n, dtype=np.intp)
            rank[order] = np.arange(n)  # the sorted row of each added row
            # each friend goes to its row's sorted place, keeping its place in the row
            friend_ids = friend_ids[np.argsort(np.repeat(rank, added["friend_count"]), kind="stable")]
        ids.flags.writeable = False
        table = ProfileTable.__new__(ProfileTable)
        table.ids = ids
        for name in ("follower_count", "status_count", "created_at", "last_status_at", "protected"):
            setattr(table, name, scalars[name].copy())
        table.languages = list(self.languages)
        code_type = np.min_scalar_type(max(len(self.languages) - 1, 0))
        table.language_codes = scalars["language_code"].astype(code_type)
        table.friend_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(scalars["friend_count"], out=table.friend_offsets[1:])
        table.friend_ids = friend_ids
        # Per-row reads index these: a memoryview gives a Python scalar in about
        # half the time ndarray.item takes.
        table._views = tuple(memoryview(getattr(table, name)) for name in (
            "ids", "follower_count", "language_codes", "protected", "created_at",
            "status_count", "last_status_at", "friend_offsets",
        ))
        return table


def _profile_table(add_all: Callable[[Callable[[dict], None]], None]) -> ProfileTable:
    """The table of the records that add_all passes to its argument, one at a
    time. A repeated id raises _RepeatedId, also when a later record raises:
    the first bad record's error is the one raised."""
    columns = _ProfileColumns()
    try:
        add_all(columns.add_record)
    except (ValueError, TypeError, KeyError, OverflowError):
        columns.order()
        raise
    return columns.build()


def _index_in(ids: Sequence[NodeId], node) -> int | None:
    """The position of `node` in the ascending sequence `ids`, by bisection;
    None for an id not in it and for a key that is not comparable with an int."""
    try:
        i = bisect_left(ids, node)
    except TypeError:
        return None
    return i if i < len(ids) and ids[i] == node else None


def _number_ends(column: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices in the ascending `column` of the sources and of the targets
    of flat [source, target, ...] `ends`, each of which is in `column`. The two
    are searched apart: np.searchsorted runs several times faster over keys in
    ascending order, as the sources of a written edge list are, and
    interleaving them with the targets would lose that."""
    return np.searchsorted(column, ends[0::2]), np.searchsorted(column, ends[1::2])


class _NodeSet(Set):
    """A read-only set view of ascending ids, iterated in that order."""

    __slots__ = ("_ids",)

    def __init__(self, ids: list[NodeId]) -> None:
        self._ids = ids

    @classmethod
    def _from_iterable(cls, nodes: Iterable[NodeId]) -> set[NodeId]:
        return set(nodes)  # what the set operators return, as for a dict's keys

    def __contains__(self, node: object) -> bool:
        return _index_in(self._ids, node) is not None

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class DirectedGraph:
    """Simple directed graph (no self-loops, no parallel edges) in compressed
    sparse row (CSR) form, at ~32 B per edge; nothing changes it once built.

    Node i (a dense index) has id ids[i], in [0, 2**63), with ids ascending,
    so a lower index is a lower id, and index_of bisects ids to map an id
    back. ids is a list of Python ints, the graph's only per-node Python
    object, because callers look up ids one at a time: at 1M ids a bisect of
    the list takes ~0.4 us, np.searchsorted for one id ~1.4 us. Row i of
    out_targets (out_targets[out_offsets[i]:out_offsets[i + 1]]) holds the
    indices of i's successors in ascending order, so edges() comes in
    ascending (source id, target id) order; in_degrees[i] counts i's
    predecessors.
    """

    __slots__ = ("ids", "out_offsets", "out_targets", "in_degrees")

    def __init__(self, ids: list[NodeId], sources: np.ndarray, targets: np.ndarray) -> None:
        """Build from the index pairs of the edges, in any order; a repeated edge
        is dropped. The distinct edge codes ascend by source, then target, so
        their targets are already laid out row by row: the offsets come from
        counting the sources, with no sort or gather of the rows."""
        n = len(ids)
        sources, targets = np.divmod(_distinct(sources.astype(np.int64) * n + targets), n)
        self.ids = ids
        self.out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=self.out_offsets[1:])
        self.out_targets = targets.astype(np.int32)
        self.in_degrees = np.bincount(targets, minlength=n)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> "DirectedGraph":
        """The graph of `edges` and `nodes`, a node being listed in either or both.
        The distinct ids are sorted as a Python set, and the edge ends are
        numbered by np.searchsorted over them: sorting the ends in numpy was
        ~10% faster on a 100k-edge sample, but its traced peak was ~20%
        higher. A repeated edge is dropped; a self-loop or an id outside
        [0, 2**63) raises ValueError."""
        return cls(*_numbered(edges, nodes))

    @property
    def nodes(self) -> Set[NodeId]:
        """A read-only set view of the ids, in ascending order."""
        return _NodeSet(self.ids)

    def index_of(self, node: NodeId) -> int | None:
        """The index of `node`, or None for an id not in the graph and for a
        key that is not an int."""
        return _index_in(self.ids, node)

    def _index(self, node: NodeId) -> int:
        i = _index_in(self.ids, node)
        if i is None:
            raise KeyError(node)
        return i

    def __contains__(self, node: NodeId) -> bool:
        return _index_in(self.ids, node) is not None

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        i, j = self.index_of(source), self.index_of(target)
        if i is None or j is None:
            return False
        return bool((self.out_targets[self.out_offsets[i] : self.out_offsets[i + 1]] == j).any())

    def successors(self, node: NodeId) -> list[NodeId]:
        i = self._index(node)
        row = self.out_targets[self.out_offsets[i] : self.out_offsets[i + 1]]
        return list(map(self.ids.__getitem__, row.tolist()))

    def out_degree(self, node: NodeId) -> int:
        i = self._index(node)
        return int(self.out_offsets[i + 1] - self.out_offsets[i])

    def in_degree(self, node: NodeId) -> int:
        return int(self.in_degrees[self._index(node)])

    def total_degree(self, node: NodeId) -> int:
        # A reciprocal pair counts 2: one in plus one out.
        return self.out_degree(node) + self.in_degree(node)

    def num_nodes(self) -> int:
        return len(self.ids)

    def num_edges(self) -> int:
        return len(self.out_targets)

    def edge_sources(self) -> np.ndarray:
        """The index of the source of each edge in out_targets."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.out_offsets))

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        get = self.ids.__getitem__
        return zip(map(get, self.edge_sources().tolist()), map(get, self.out_targets.tolist()))

    def subgraph(self, nodes: Iterable[NodeId]) -> "DirectedGraph":
        """Induced subgraph on the given ids, in ascending id order; an id not in
        the graph, or a key that is not an int, is ignored."""
        rows = np.array([i for i in map(self.index_of, nodes) if i is not None], np.intp)
        keep = np.zeros(len(self.ids), dtype=bool)
        keep[rows] = True
        return self._induced(keep)

    def _induced(self, keep: np.ndarray) -> "DirectedGraph":
        """The subgraph on the nodes i with keep[i], renumbered in index order."""
        sources, targets = self.edge_sources(), self.out_targets
        inside = keep[sources] & keep[targets]
        number = np.cumsum(keep) - 1
        ids = list(compress(self.ids, keep.tolist()))
        return DirectedGraph(ids, number[sources[inside]], number[targets[inside]])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.num_nodes()}, edges={self.num_edges()})"


def _numbered(
    edges: Iterable[tuple[NodeId, NodeId]], nodes: Iterable[NodeId]
) -> tuple[list[NodeId], np.ndarray, np.ndarray]:
    """DirectedGraph.from_edges' input numbered: the ascending distinct ids,
    and the index of each edge's source and target among them, in input
    order."""
    ends = [node for edge in edges for node in edge]
    ids = sorted({*nodes, *ends})
    if ids and ids[0] < 0:
        raise ValueError(f"node ids must be non-negative, got {ids[0]}")
    if ids and ids[-1] >= _INT64_END:
        raise ValueError(f"node ids must be < 2**63, got {ids[-1]}")
    sources, targets = _number_ends(np.array(ids, np.int64), np.array(ends, np.int64))
    loops = np.flatnonzero(sources == targets)
    if loops.size:
        node = ids[sources[loops[0]]]
        raise ValueError(f"self-loop rejected: ({node}, {node})")
    return ids, sources, targets


def _labelled_graph(ids, sources, targets, codes) -> tuple[DirectedGraph, np.ndarray]:
    """The graph of the edges sources[k] -> targets[k], indices into `ids`,
    and codes[k] of each edge, aligned with its out_targets. The edges must
    be distinct: then sorting them by source, then target, lays them out as
    out_targets."""
    graph = DirectedGraph(ids, sources, targets)
    return graph, codes[np.argsort(sources * len(ids) + targets)]


class UndirectedGraph(DirectedGraph):
    """The undirected view of a DirectedGraph, which the reference sampler and
    label propagation read: a DirectedGraph that holds each undirected edge in
    both directions. Row i lists the indices of i's neighbors in ascending
    order, in_degrees equals the row lengths, and the ids list is the one of
    the graph it was built from."""

    __slots__ = ()

    @classmethod
    def from_directed(cls, graph: DirectedGraph) -> "UndirectedGraph":
        """Collapse a directed graph: every directed edge, and each reciprocal
        pair, becomes one undirected edge; the constructor drops the repeats.
        The view shares the graph's ids list, its only per-node object."""
        u, v = graph.edge_sources(), graph.out_targets
        return cls(graph.ids, np.concatenate([u, v]), np.concatenate([v, u]))


def _distinct(codes: np.ndarray) -> np.ndarray:
    """np.unique(codes): the sorted distinct values of an integer array. Plain
    np.unique takes ~0.3 s on 500k int64 codes under numpy 2.4, a sort and one
    compare of neighbours ~8 ms."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _csr_rows(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 offsets and int32 values of the rows keys[i] -> values[i], each row in input order."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return offsets, values[np.argsort(keys, kind="stable")].astype(np.int32)


def k_core(graph: DirectedGraph, k: int) -> DirectedGraph:
    """Maximal subgraph in which every node has total degree (in + out) >= k.

    Iterative peeling by index; the fixpoint is independent of deletion order,
    so k_core is idempotent. An empty graph yields an empty graph.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sources, targets = graph.edge_sources(), graph.out_targets
    ends = np.concatenate([sources, targets]), np.concatenate([targets, sources])
    offsets, neighbors = _csr_rows(*ends, graph.num_nodes())
    degree = np.diff(offsets).tolist()
    keep = [d >= k for d in degree]
    stack = [i for i, kept in enumerate(keep) if not kept]
    offsets, neighbors = offsets.tolist(), neighbors.tolist()
    while stack:
        i = stack.pop()
        for j in neighbors[offsets[i] : offsets[i + 1]]:
            if keep[j]:
                degree[j] -= 1
                if degree[j] < k:
                    keep[j] = False
                    stack.append(j)
    return graph._induced(np.array(keep, dtype=bool))


class PageRankScores(Mapping[NodeId, float]):
    """A read-only mapping from each node id of a graph to its PageRank score,
    in ascending id order: the graph's ids list and one float64 column, so it
    keeps no Python object per node. scores[node] bisects the ids; values()
    yields Python floats, converted one bounded slice of the column at a
    time, so zip(scores, scores.values()) walks the pairs in id order."""

    __slots__ = ("ids", "column")

    def __init__(self, ids: list[NodeId], column: np.ndarray) -> None:
        self.ids = ids
        self.column = column

    def __getitem__(self, node: NodeId) -> float:
        i = _index_in(self.ids, node)
        if i is None:
            raise KeyError(node)
        return float(self.column[i])

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def values(self) -> ValuesView[float]:
        return _ScoreValues(self)


# Scores converted to Python floats at a time by values().
_SCORE_SLICE = 1 << 12


def _floats(column: np.ndarray) -> Iterator[float]:
    for start in range(0, len(column), _SCORE_SLICE):
        yield from column[start : start + _SCORE_SLICE].tolist()


class _ScoreValues(ValuesView):
    def __iter__(self) -> Iterator[float]:
        return _floats(self._mapping.column)


@dataclass
class PageRankResult:
    """PageRank scores plus a convergence flag (scores are returned either way).
    scores is a PageRankScores over the graph's ids list and the score column."""

    scores: PageRankScores
    converged: bool
    iterations: int


# The edges of one block of source rows in pagerank's sum; a row with more
# edges makes a block of its own.
_PAGERANK_BLOCK = 1 << 16


def _row_blocks(offsets: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(first row, end row, first edge, end edge) of consecutive blocks of CSR
    rows that cover every row, each of at most _PAGERANK_BLOCK edges unless it
    is one row."""
    n = len(offsets) - 1
    blocks = []
    lo = 0
    while lo < n:
        a = int(offsets[lo])
        hi = int(np.searchsorted(offsets, a + _PAGERANK_BLOCK, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        blocks.append((lo, hi, a, int(offsets[hi])))
        lo = hi
    return blocks


def pagerank(
    graph: DirectedGraph,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_iters: int = 200,
) -> PageRankResult:
    """Power iteration with uniform teleport; dangling mass is redistributed uniformly.

    Stops when the L1 change drops below `tolerance`; if `max_iters` is reached
    first the result is flagged as non-converged.

    Each node's incoming terms are summed from 0.0 in edges() order, which is
    ascending id order of their sources: the rows are taken in blocks of
    about _PAGERANK_BLOCK edges, and np.add.at adds a block's terms in index
    order. No array as long as the edge list is made; every per-iteration
    array is one of a few n-long buffers made once.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if graph.num_nodes() == 0:
        raise ValueError("pagerank requires a non-empty graph")
    ids = graph.ids
    n = len(ids)
    # The returned column is allocated first, so it sits below every buffer
    # freed on return and glibc can hand those back to the system.
    column = scores = np.full(n, 1.0 / n)
    new_scores = np.empty(n)
    targets = graph.out_targets
    degree = np.diff(graph.out_offsets)
    blocks = _row_blocks(graph.out_offsets)
    dangling = np.flatnonzero(degree == 0)
    inv_out = np.zeros(n)
    np.divide(1.0, degree, out=inv_out, where=degree > 0)
    contrib = np.empty(n)
    dangling_scores = np.empty(len(dangling))
    teleport = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        np.multiply(scores, inv_out, out=contrib)
        new_scores.fill(0.0)
        for lo, hi, a, b in blocks:
            np.add.at(new_scores, targets[a:b], np.repeat(contrib[lo:hi], degree[lo:hi]))
        # mode="clip" lets take() write into `out` unbuffered; every index is valid
        dangling_mass = np.take(scores, dangling, out=dangling_scores, mode="clip").sum() / n
        new_scores += dangling_mass
        new_scores *= damping
        new_scores += teleport
        change = np.subtract(new_scores, scores, out=contrib)  # contrib is spent
        delta = np.abs(change, out=change).sum()
        scores, new_scores = new_scores, scores
        if delta < tolerance:
            converged = True
            break
    if scores is not column:
        column[:] = scores
    return PageRankResult(
        scores=PageRankScores(ids, column),
        converged=converged,
        iterations=iterations,
    )


def write_edge_list(graph: DirectedGraph, path) -> None:
    """CSV with header `source,target`, one edge per line in edges() order:
    ascending source id, then ascending target id."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target\n")
        for source, target in graph.edges():
            fh.write(f"{source},{target}\n")


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector while a reader or the walk allocates millions
    of objects.

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


def _load_rows(
    path, header: str, labels: tuple[str, ...], lines: Callable[[TextIO], Iterable[str]]
) -> np.ndarray | None:
    """An edge file's rows as numpy's reader reads `lines(fh)`, the body of
    the open file, int64: [source, target] or, with `labels`, [source,
    target, index of the label].

    None where numpy does not read the file: a header that, stripped, is
    not `header`, a body that numpy refuses or reads only with a warning (an
    empty body's is ignored), or one that fails a check: the column count,
    no id past 2**63 - 1, no self-loop. Ids are read as uint64, which
    refuses '-', where int64 reads '-0', which parse_id refuses, as 0;
    viewed as int64, an id past 2**63 - 1 is negative.
    """
    converters = None
    if labels:
        converters = {2: {label: code for code, label in enumerate(labels)}.__getitem__}
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            if fh.readline().strip() != header:
                return None
            warnings.simplefilter("error")  # older releases read '1.0' as an int, with a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                lines(fh), np.uint64, delimiter=",", comments=None, ndmin=2, converters=converters
            ).view(np.int64)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    fields = 3 if labels else 2
    if not rows.size:  # numpy gives an empty body one column
        return rows.reshape(0, fields)
    ok = rows.shape[1] == fields and rows.min() >= 0
    return rows if ok and not np.any(rows[:, 0] == rows[:, 1]) else None


def _stripped(fh: TextIO) -> Iterator[str]:
    """The lines of `fh` without trailing whitespace, and no whitespace-only
    line: numpy's reader refuses both, and the per-line rules allow them."""
    return filter(None, map(str.rstrip, fh))


def _check_lines(path, header: str, labels: tuple[str, ...], malformed: str) -> None:
    """Raise ValueError("<path>: line N: <reason>") for the first bad line of
    an edge file, in _read_lines' order: a header that is not `header`, a row
    that is not `source,target` or, with `labels`, `source,target,label` with
    a label from `labels` (`malformed` formatted with the line), an id that
    parse_id rejects, a self-loop and, with `labels`, an edge that an earlier
    row lists. A file with no bad line returns."""
    fields = 3 if labels else 2
    listed: set[tuple[NodeId, NodeId]] = set()

    def check(line: str) -> None:
        parts = line.split(",")
        if len(parts) != fields or (labels and parts[2] not in labels):
            raise ValueError(malformed.format(line))
        u, v = parse_id(parts[0]), parse_id(parts[1])
        if u == v:
            raise ValueError(f"self-loop {u},{v}")
        if labels:
            if (u, v) in listed:
                raise ValueError(f"edge {u},{v} listed twice")
            listed.add((u, v))

    _read_lines(path, check, header=header)


def _read_edge_file(
    path, header: str = "source,target", labels: tuple[str, ...] = (),
    malformed: str = "expected 'source,target', got {!r}",
) -> tuple[DirectedGraph, np.ndarray | None]:
    """The graph of an edge file, nodes and each row in ascending id order
    whatever the file's order, and, with `labels`, the index in `labels` of
    each edge's label, uint8 and aligned with the graph's out_targets; a
    repeated edge of an edge list is dropped with a logged count, and one of
    a labelled file raises.

    numpy's reader reads the file as it stands, and if it refuses, once more
    from _stripped. A file it refuses both times, and a labelled file that
    lists an edge twice, go to _check_lines, which raises for the first bad
    line; so does the reader if _check_lines finds none. np.unique(ids,
    return_inverse=True) would number the ends too, but it sorts with an
    index array as large as the input: at 5M edges the read then peaked at
    ~527 MB, against ~362 MB with np.searchsorted.
    """
    with _gc_paused():
        for lines in (iter, _stripped):
            rows = _load_rows(path, header, labels, lines)
            if rows is not None:
                break
        else:
            _check_lines(path, header, labels, malformed)
            raise ValueError(f"{path}: numpy's reader refuses the file, yet no line is bad")
        ends = rows[:, :2].ravel()  # a view of an edge list's rows
        codes = rows[:, 2].astype(np.uint8) if labels else None
        del rows  # a sample's ends and codes are copies: free its 24 B a row
        unique = _distinct(ends)
        ids = unique.tolist()
        if labels:
            graph, codes = _labelled_graph(ids, *_number_ends(unique, ends), codes)
        else:
            graph = DirectedGraph(ids, *_number_ends(unique, ends))
        repeats = len(ends) // 2 - graph.num_edges()
        if repeats and labels:
            _check_lines(path, header, labels, malformed)
            raise ValueError(f"{path}: an edge is listed twice, yet no line is bad")
    if repeats:
        logger.warning("%s: ignored %d duplicate edge(s)", path, repeats)
    return graph, codes


def read_edge_list(path) -> DirectedGraph:
    """Parse a `source,target` CSV into a DirectedGraph. Duplicate edges are
    dropped with a logged count; malformed lines and self-loops raise with
    the offending line number.

    numpy's reader (_read_edge_file) reads rows of two ids in [0, 2**63),
    padded or '+'-signed, with blank or whitespace-only lines, CR or CRLF
    line ends and no final newline, into one column of ids, 16 B a row. For
    any other file, an id of 2**63 or more among them, the per-line check
    names the first bad line.
    """
    return _read_edge_file(path)[0]


def write_profiles(profiles: ProfileTable, path) -> None:
    """One JSON object per line, in the table's ascending id order, with the
    fields in PROFILE_FIELDS order and a null last_status_at written out."""
    offsets = profiles.friend_offsets.tolist()
    friend_ids = profiles.friend_ids.tolist()
    languages = profiles.languages
    rows = zip(
        profiles.ids.tolist(), profiles.follower_count.tolist(), offsets, offsets[1:],
        profiles.language_codes.tolist(), profiles.protected.tolist(),
        profiles.created_at.tolist(), profiles.status_count.tolist(),
        profiles.last_status_at.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for (node, follower_count, start, end, code, protected, created_at, status_count,
             last_status_at) in rows:
            record = {
                "node": node,
                "follower_count": follower_count,
                "friends_recent_first": friend_ids[start:end],
                "language": languages[code],
                "protected": protected,
                "created_at": created_at,
                "status_count": status_count,
                "last_status_at": None if math.isnan(last_status_at) else last_status_at,
            }
            fh.write(_compact_json(record) + "\n")


def read_profiles(path) -> ProfileTable:
    """Parse JSONL profiles, one JSON object per line in any id order, into a
    ProfileTable. Each line passes the one per-record check that
    ProfileTable.from_records runs (_ProfileColumns.add_record), and an error
    names the path and the first bad line: for a repeated id, which the
    table's build finds by sorting the ids, the line is counted again. The
    records go straight into the table's columns: no per-account object
    outlives the read."""
    try:
        return _profile_table(partial(_read_json_lines, path))
    except _RepeatedId as exc:
        raise ValueError(f"{path}: line {_record_line(path, exc.position)}: {exc}") from None


def _record_line(path, position: int) -> int:
    """The number of the line that holds a JSONL file's record at `position`,
    counted from 0 over the non-blank lines, as _read_lines counts them."""
    with _open_text(path) as fh:
        lines = (lineno for lineno, line in enumerate(fh, start=1) if line.strip())
        return next(islice(lines, position, None))
