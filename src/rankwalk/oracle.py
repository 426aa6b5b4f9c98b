"""Simulated follow-network API: per-key, per-endpoint sliding-window rate
budgets driven by a simulated clock, serving a fixed ground-truth snapshot."""

from __future__ import annotations

import json
import math
import operator
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import _INT64_END, NodeId, ProfileTable


class NotFoundError(LookupError):
    """Queried account id does not exist in the snapshot."""


class ProtectedError(PermissionError):
    """Friends of a protected account were requested."""


class SimulatedClock:
    """Monotone simulated time in seconds. Never reads wall-clock time."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> float:
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now


class FriendsPage(NamedTuple):
    """One friends-endpoint response: a recency-ordered prefix of the friend list."""

    friends: tuple[NodeId, ...]
    truncated: bool


class CallRecord(NamedTuple):
    """One charged call: its simulated time, the key charged (None with rate
    limits off), the endpoint, the ids asked for and the calls left on the key."""

    t: float
    key: int | None
    endpoint: str
    nodes: tuple[NodeId, ...]
    calls_remaining: int | None


class CallLog:
    """The charged calls of one oracle, in call order, kept as typed columns
    with no object per call: the times as float64, the key, the calls
    remaining and the ids of every call as int64, a call's ids up to its end
    offset, and the endpoint as a one-byte code; -1 stands for a None key or
    calls remaining. A call with one id costs 41 B, and each further id 8 B
    more.

    It stands in for the list of CallRecords it replaces: len() counts the
    calls, iteration rebuilds each one's CallRecord (nodes a tuple of ints),
    and two logs are == when they hold the same records.
    """

    __slots__ = ("_t", "_key", "_endpoint", "_codes", "_remaining", "_node_ids", "_node_ends")

    def __init__(self) -> None:
        self._t = array("d")
        self._key = array("q")  # a key is below key_count, so it fits
        self._endpoint = array("B")
        self._codes: dict[str, int] = {}  # endpoint -> its code
        self._remaining = array("q")  # ApiBudget keeps a window's calls below 2**63
        self._node_ids = array("q")
        self._node_ends = array("q")

    def append(
        self, t: float, key: int | None, endpoint: str, nodes: Iterable[NodeId],
        calls_remaining: int | None,
    ) -> None:
        # first, and whole: an id that is not an int64 raises before any column grows
        self._node_ids += array("q", nodes)
        self._node_ends.append(len(self._node_ids))
        self._t.append(t)
        self._key.append(-1 if key is None else key)
        self._endpoint.append(self._codes.setdefault(endpoint, len(self._codes)))
        self._remaining.append(-1 if calls_remaining is None else calls_remaining)

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self) -> Iterator[CallRecord]:
        endpoints = list(self._codes)
        ids = self._node_ids
        record = tuple.__new__  # a CallRecord without the Python-level CallRecord.__new__
        start = 0
        for t, key, code, remaining, end in zip(
            self._t, self._key, self._endpoint, self._remaining, self._node_ends
        ):
            # most calls ask for one id, and this skips the slice's copy
            nodes = (ids[start],) if end - start == 1 else tuple(ids[start:end])
            yield record(CallRecord, (
                t, None if key < 0 else key, endpoints[code], nodes,
                None if remaining < 0 else remaining,
            ))
            start = end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CallLog):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"CallLog(calls={len(self)})"


@dataclass(frozen=True)
class ApiBudget:
    """The simulated API's quotas: the one place they and their defaults live,
    and the one place their ranges are checked.

    Defaults mirror the public platform: 15 friends calls per key per 900 s
    window, 5,000 friends per page, and 900 profile calls of up to 100 ids
    per key per window, over 12 keys. Counts must be at least 1, calls per
    window also below 2**63, and windows finite and above 0. With
    rate_limits_enabled off, calls are logged but never charged or blocked.
    """

    key_count: int = 12
    friends_calls_per_window: int = 15
    friends_window_seconds: float = 900.0
    profile_calls_per_window: int = 900
    profile_window_seconds: float = 900.0
    page_size: int = 5000
    profile_batch: int = 100
    rate_limits_enabled: bool = True

    def __post_init__(self) -> None:
        for name in (
            "key_count", "friends_calls_per_window", "profile_calls_per_window",
            "page_size", "profile_batch",
        ):
            value = getattr(self, name)
            if not value >= 1:  # NaN fails too
                raise ValueError(f"{name} must be >= 1, got {value}")
            if name.endswith("_calls_per_window") and value >= _INT64_END:
                raise ValueError(f"{name} must be < 2**63, got {value}")
        for name in ("friends_window_seconds", "profile_window_seconds"):
            value = getattr(self, name)
            # an infinite window never frees a slot, so a crawl would block for good
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


class RateLimiter:
    """Sliding-window budget over a pool of API keys.

    Invariant: at any simulated instant t, each key holds at most
    calls_per_window charges with timestamps in (t - window_seconds, t].

    Expired charges are pruned only when the key choice is made at another
    instant than the last prune. That is exact: a charge is stamped with the
    instant its key was chosen at, so every charge made since a prune at t is
    stamped t, and none can expire at t because window_seconds > 0. The
    simulated clock never goes back, so a crawl prunes once per instant at most.
    The parameters are taken as given: ApiBudget checks their ranges.
    """

    def __init__(self, calls_per_window: int, window_seconds: float, key_count: int = 1) -> None:
        self.calls_per_window = calls_per_window
        self.window_seconds = float(window_seconds)
        self.key_count = key_count
        self._charges: list[deque[float]] = [deque() for _ in range(key_count)]
        self._pruned_at: float | None = None

    def _available_key(self, now: float) -> int | None:
        """Least-loaded key with remaining budget; ties broken by lowest index."""
        if now != self._pruned_at:
            cutoff = now - self.window_seconds
            for charges in self._charges:
                # A charge at ts stops counting once ts <= now - window.
                while charges and charges[0] <= cutoff:
                    charges.popleft()
            self._pruned_at = now
        loads = list(map(len, self._charges))
        load = min(loads)
        return loads.index(load) if load < self.calls_per_window else None

    def next_expiry(self) -> float:
        """Earliest simulated instant at which any key frees one slot."""
        return min(charges[0] + self.window_seconds for charges in self._charges if charges)

    def charge(self, clock: SimulatedClock) -> tuple[int, int]:
        """Charge one call, advancing the clock to the earliest window expiry when
        every key is exhausted. Returns (key, calls remaining on that key)."""
        key = self._available_key(clock.now)
        if key is None:
            clock.advance_to(self.next_expiry())
            key = self._available_key(clock.now)
            if key is None:  # the clock is so large that adding the window leaves it unchanged
                raise ValueError(
                    f"a rate window of {self.window_seconds!r} s is too small to free a slot "
                    f"at simulated time {clock.now!r}"
                )
        self._charges[key].append(clock.now)
        return key, self.calls_per_window - len(self._charges[key])

    def charges_in_window(self, now: float) -> list[list[float]]:
        """Each key's charges that still count at `now`, oldest first."""
        cutoff = now - self.window_seconds
        return [[t for t in charges if t > cutoff] for charges in self._charges]

    def restore(self, key: int, times: Iterable[float]) -> None:
        """Charge `key` again at `times`, the charges of an earlier run; the
        next key choice prunes the expired ones."""
        if not 0 <= key < self.key_count:
            raise ValueError(f"charges of key {key}, but key_count is {self.key_count}")
        self._charges[key] = deque(sorted([*self._charges[key], *times]))
        self._pruned_at = None


class SimulatedOracle:
    """Answers friend and profile lookups from a fixed snapshot of profiles,
    under the quotas of an ApiBudget.

    The profiles are the one ground truth: the ProfileTable that
    read_profiles or the generator returned, kept as it is and never copied.
    An account's friend list is its table row's friends, and an id with no
    profile is unknown to every endpoint. Answers are pure functions of (node,
    construction inputs); only the clock and budget state change between
    identical queries.

    The endpoints take ids. get_friends and follows map an id to its row
    with one bisect of the table's id column, in C: ~0.5 us at 100k ids,
    against ~40 ns for the id -> row dict the table no longer keeps at
    ~100 B per account. get_profiles only charges and logs: a caller reads
    the profiles it paid for from the table's columns.

    `call_log` is a CallLog of every charged call, and `calls_by_endpoint`
    counts them per endpoint. window_charges() and restore_charges() carry
    the limiters' charges that still count over a resume.
    """

    FRIENDS = "friends"
    PROFILES = "profiles"

    def __init__(
        self,
        profiles: ProfileTable,
        budget: ApiBudget = ApiBudget(),
        clock: SimulatedClock | None = None,
    ) -> None:
        self.profiles = profiles
        self._ids = memoryview(profiles.ids)  # bisected by get_friends and follows
        self.budget = budget
        self.clock = clock if clock is not None else SimulatedClock()
        self.friends_limiter: RateLimiter | None = None
        self.profiles_limiter: RateLimiter | None = None
        if budget.rate_limits_enabled:
            self.friends_limiter = RateLimiter(
                budget.friends_calls_per_window, budget.friends_window_seconds, budget.key_count
            )
            self.profiles_limiter = RateLimiter(
                budget.profile_calls_per_window, budget.profile_window_seconds, budget.key_count
            )
        self.page_size = budget.page_size
        self.profile_batch = budget.profile_batch
        self.call_log = CallLog()
        self.calls_by_endpoint: dict[str, int] = {self.FRIENDS: 0, self.PROFILES: 0}

    def _charge(self, endpoint: str, limiter: RateLimiter | None, nodes: Sequence[NodeId]) -> None:
        key: int | None = None
        remaining: int | None = None
        if limiter is not None:
            key, remaining = limiter.charge(self.clock)
        self.calls_by_endpoint[endpoint] += 1
        self.call_log.append(self.clock.now, key, endpoint, nodes, remaining)

    def _limiters(self) -> dict[str, RateLimiter]:
        """Each endpoint's limiter; none with rate limits off."""
        if self.friends_limiter is None or self.profiles_limiter is None:
            return {}
        return {self.FRIENDS: self.friends_limiter, self.PROFILES: self.profiles_limiter}

    def window_charges(self) -> list[tuple[str, int, list[float]]]:
        """(endpoint, key, times) of each key with charges that still count at
        the clock's now, the times oldest first."""
        return [
            (endpoint, key, times)
            for endpoint, limiter in self._limiters().items()
            for key, times in enumerate(limiter.charges_in_window(self.clock.now))
            if times
        ]

    def restore_charges(self, charges: Iterable[tuple[str, int, Sequence[float]]]) -> None:
        """Charge each (endpoint, key, times) of window_charges() again, so a
        resumed run keeps the per-key budget across the resume; ignored with
        rate limits off. A key not below key_count raises ValueError."""
        limiters = self._limiters()
        for endpoint, key, times in charges:
            if endpoint in limiters:
                limiters[endpoint].restore(key, times)

    def get_friends(self, node: NodeId) -> FriendsPage:
        """First page of the node's friends, most recent first.

        Charges one friends-endpoint call; blocks (on the simulated clock) when
        all keys are exhausted. Unknown ids raise NotFoundError, protected
        accounts ProtectedError; neither consumes budget. The id is mapped to
        its row by one bisect of the table's id column.
        """
        ids = self._ids
        row = bisect_left(ids, node)
        if row == len(ids) or ids[row] != node:
            raise NotFoundError(f"unknown account id {node}")
        if self.profiles.protected[row]:
            raise ProtectedError(f"account {node} is protected")
        self._charge(self.FRIENDS, self.friends_limiter, [node])
        friends = self.profiles.friends(row)
        return FriendsPage(tuple(friends[: self.page_size].tolist()), len(friends) > self.page_size)

    def get_profiles(self, nodes: Sequence[NodeId]) -> None:
        """Batched profile lookup: charges and logs ceil(len(nodes) /
        profile_batch) calls, unknown ids included, and answers nothing. A
        caller reads the looked-up profiles from the `profiles` table's
        columns, as a crawl reads follower counts and languages. An id that
        is not an int64 integer raises TypeError or ValueError before any
        call is charged.
        """
        try:
            ids = array("q", nodes)  # a float, str or None raises TypeError
        except OverflowError:
            raise ValueError("account ids must fit an int64") from None
        batch = self.profile_batch
        for start in range(0, len(ids), batch):
            self._charge(self.PROFILES, self.profiles_limiter, ids[start : start + batch])

    def follows(self, source: NodeId, target: NodeId) -> bool:
        """Ground-truth follow check; uncharged and unlogged. Reads the source's
        friend list, so an id with no profile follows nobody."""
        ids = self._ids
        row = bisect_left(ids, source)
        if row == len(ids) or ids[row] != source:
            return False
        # a short row's list is searched ~10x faster than the numpy row
        return target in self.profiles.friends(row).tolist()


def build_simulated_oracle(
    graph: object,
    profiles: ProfileTable,
    *,
    clock: SimulatedClock | None = None,
    **budget,
) -> SimulatedOracle:
    """SimulatedOracle(profiles, ApiBudget(**budget), clock), for callers that
    pass the budget as keywords. `graph` is ignored: the profiles' friend lists
    are the only adjacency the oracle serves."""
    return SimulatedOracle(profiles, ApiBudget(**budget), clock)


def write_call_log(records: Iterable[CallRecord], path) -> None:
    """JSONL, one record per charged call.

    Each line is the compact json.dumps of {"t", "key", "endpoint", "nodes",
    "calls_remaining"}, formatted directly: repr of a finite float or an int is
    its JSON text, and str of an int is a JSON integer.
    """
    endpoints: dict[str, str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for t, key, endpoint, nodes, remaining in records:
            name = endpoints.get(endpoint)
            if name is None:
                name = endpoints[endpoint] = json.dumps(endpoint)
            fh.write(
                f'{{"t":{t!r},"key":{"null" if key is None else key},"endpoint":{name},'
                f'"nodes":[{",".join(map(str, nodes))}],'
                f'"calls_remaining":{"null" if remaining is None else remaining}}}\n'
            )


def assert_budget_safety(
    records: Iterable[CallRecord],
    endpoint: str,
    calls_per_window: int,
    window_seconds: float,
) -> None:
    """Replay a call log and verify the sliding-window invariant for every key.

    Raises AssertionError naming the first violating key and instant.
    """
    by_key: dict[int, list[float]] = {}
    for r in records:
        if r.endpoint == endpoint and r.key is not None:
            by_key.setdefault(r.key, []).append(r.t)
    for key, times in by_key.items():
        times.sort()
        lo = 0
        for hi, t in enumerate(times):
            while times[lo] <= t - window_seconds:
                lo += 1
            count = hi - lo + 1
            if count > calls_per_window:
                raise AssertionError(
                    f"key {key}: {count} {endpoint} calls in window ending at t={t}"
                )
