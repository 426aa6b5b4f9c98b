import json
import math
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankwalk.graph import PROFILE_FIELDS, DirectedGraph, ProfileTable, read_profiles, write_profiles
from rankwalk.oracle import (
    ApiBudget,
    CallRecord,
    FriendsPage,
    NotFoundError,
    ProtectedError,
    RateLimiter,
    SimulatedClock,
    SimulatedOracle,
    assert_budget_safety,
    build_simulated_oracle,
    write_call_log,
)

from conftest import ReferenceRateLimiter, make_profiles, profile_record


class TestSimulatedClock:
    def test_advances(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        clock.advance_to(clock.now + 5.0)
        assert clock.now == 5.0
        clock.advance_to(3.0)  # never goes backwards
        assert clock.now == 5.0
        clock.advance_to(9.0)
        assert clock.now == 9.0

class TestApiBudget:
    @pytest.mark.parametrize(
        "name, value, reason",
        [
            ("key_count", 0, ">= 1"),
            ("friends_calls_per_window", 0, ">= 1"),
            ("profile_calls_per_window", -1, ">= 1"),
            ("friends_calls_per_window", 2**63, "< 2**63"),
            ("profile_calls_per_window", 2**63, "< 2**63"),
            ("page_size", 0, ">= 1"),
            ("profile_batch", 0, ">= 1"),
            ("friends_window_seconds", 0.0, "finite and > 0"),
            ("friends_window_seconds", math.nan, "finite and > 0"),
            ("friends_window_seconds", math.inf, "finite and > 0"),
            ("profile_window_seconds", -900.0, "finite and > 0"),
            ("profile_window_seconds", math.nan, "finite and > 0"),
            ("profile_window_seconds", math.inf, "finite and > 0"),
        ],
    )
    def test_rejects_out_of_range(self, name, value, reason):
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(reason)}, got {value}$"):
            ApiBudget(**{name: value})

    def test_oracle_takes_its_limits_from_the_budget(self):
        budget = ApiBudget(key_count=3, friends_calls_per_window=4, profile_window_seconds=60.0)
        oracle = SimulatedOracle(ProfileTable.from_records([]), budget)
        assert oracle.budget is budget
        friends = oracle.friends_limiter
        assert (friends.key_count, friends.calls_per_window) == (3, 4)
        assert oracle.profiles_limiter.window_seconds == 60.0
        unlimited = SimulatedOracle(ProfileTable.from_records([]), ApiBudget(rate_limits_enabled=False))
        assert unlimited.friends_limiter is None and unlimited.profiles_limiter is None


def simple_oracle(**kwargs):
    g = DirectedGraph.from_edges([(0, 7), (0, 5), (0, 2), (5, 0)], nodes=[9])
    profiles = make_profiles(g, friends_order={0: [7, 5, 2]})
    defaults = dict(key_count=1, rate_limits_enabled=True)
    defaults.update(kwargs)
    return build_simulated_oracle(g, profiles, **defaults)


class TestGetFriends:
    def test_returns_recency_order(self):
        oracle = simple_oracle()
        page = oracle.get_friends(0)
        assert page.friends == (7, 5, 2)
        assert not page.truncated

    def test_truncates_to_page_size(self):
        g = DirectedGraph.from_edges([(0, target) for target in range(1, 6001)])
        friends = list(range(6000, 0, -1))
        profiles = make_profiles(g, friends_order={0: friends})
        oracle = build_simulated_oracle(g, profiles, page_size=5000, rate_limits_enabled=False)
        page = oracle.get_friends(0)
        assert page.truncated
        assert len(page.friends) == 5000
        assert list(page.friends) == friends[:5000]

    def test_unknown_node_raises_not_found(self):
        with pytest.raises(NotFoundError):
            simple_oracle().get_friends(12345)

    def test_protected_node_refuses_friends_but_serves_profile(self):
        g = DirectedGraph.from_edges([(0, 1)])
        profiles = make_profiles(g, protected={0})
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        with pytest.raises(ProtectedError):
            oracle.get_friends(0)
        assert oracle.get_profiles([0]) is None
        assert oracle.profiles[0].protected
        # the refused friends call consumed no budget; the profile lookup was charged
        assert oracle.calls_by_endpoint[oracle.FRIENDS] == 0
        assert oracle.calls_by_endpoint[oracle.PROFILES] == 1


class TestRateBudget:
    def test_sixteenth_call_waits_for_window_expiry(self):
        oracle = simple_oracle(friends_calls_per_window=15, friends_window_seconds=900.0)
        for _ in range(15):
            oracle.get_friends(0)
        assert oracle.clock.now == 0.0
        oracle.get_friends(0)
        assert oracle.clock.now == 900.0
        assert_budget_safety(oracle.call_log, "friends", 15, 900.0)

    def test_budget_safety_replay_catches_violations(self):
        oracle = simple_oracle()
        for _ in range(40):
            oracle.get_friends(0)
        assert_budget_safety(oracle.call_log, "friends", 15, 900.0)
        with pytest.raises(AssertionError):
            assert_budget_safety(oracle.call_log, "friends", 14, 900.0)

    def test_least_loaded_key_selection(self):
        oracle = simple_oracle(key_count=3)
        for _ in range(6):
            oracle.get_friends(0)
        keys = [r.key for r in oracle.call_log]
        # round-robins across the pool: always charges a least-loaded key
        assert keys == [0, 1, 2, 0, 1, 2]

    def test_calls_remaining_recorded(self):
        oracle = simple_oracle()
        oracle.get_friends(0)
        oracle.get_friends(0)
        assert [r.calls_remaining for r in oracle.call_log] == [14, 13]

    def test_single_key_throughput_ceiling(self):
        g = DirectedGraph.from_edges(
            [(source, target) for source in range(4) for target in range(10, 5010)]
        )
        profiles = make_profiles(g)
        oracle = build_simulated_oracle(g, profiles, key_count=1, page_size=5000)
        for i in range(45):
            oracle.get_friends(i % 4)
        # 15 calls at t=0, then bursts at each expiry
        assert oracle.clock.now == 1800.0
        windows = {}
        for record in oracle.call_log:
            windows.setdefault(record.t, 0)
            windows[record.t] += 5000
        assert all(v == 75000 for v in windows.values())

    def test_rate_limiter_window_is_sliding(self):
        clock = SimulatedClock()
        limiter = RateLimiter(2, 10.0, key_count=1)
        limiter.charge(clock)
        clock.advance_to(clock.now + 4.0)
        limiter.charge(clock)
        limiter.charge(clock)  # must wait until the first charge expires
        assert clock.now == 10.0
        limiter.charge(clock)  # then until the second one does
        assert clock.now == 14.0

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        key_count=st.integers(1, 12),
        calls_per_window=st.integers(1, 4),
        window=st.sampled_from([0.5, 1.0, 3.0, 10.0]),
        steps=st.lists(
            st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0, 2.5, 7.0])), max_size=120
        ),
    )
    def test_key_choice_equals_pruning_every_key_on_every_charge(
        self, key_count, calls_per_window, window, steps
    ):
        """None in `steps` is a charge, a number a clock advance."""
        clock, ref_clock = SimulatedClock(), SimulatedClock()
        limiter = RateLimiter(calls_per_window, window, key_count)
        reference = ReferenceRateLimiter(calls_per_window, window, key_count)
        log = []
        for step in steps:
            if step is None:
                key, remaining = limiter.charge(clock)
                assert (key, remaining) == reference.charge(ref_clock)
                log.append(CallRecord(clock.now, key, "friends", (0,), remaining))
            else:
                clock.advance_to(clock.now + step)
                ref_clock.advance_to(ref_clock.now + step)
            assert clock.now == ref_clock.now
        assert_budget_safety(log, "friends", calls_per_window, window)


class TestProfiles:
    def test_profile_roundtrip_value(self):
        g = DirectedGraph.from_edges([(1, 2)])
        profiles = make_profiles(g, follower_counts={2: 42})
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        assert oracle.get_profiles([2]) is None
        assert oracle.profiles[2].follower_count == 42

    def test_batch_charges_ceil_division(self):
        g = DirectedGraph.from_edges([], nodes=range(250))
        profiles = make_profiles(g)
        oracle = build_simulated_oracle(g, profiles, profile_batch=100, rate_limits_enabled=False)
        assert oracle.get_profiles(list(range(250))) is None
        assert oracle.calls_by_endpoint[oracle.PROFILES] == 3
        assert [r.nodes for r in oracle.call_log] == [
            tuple(range(0, 100)), tuple(range(100, 200)), tuple(range(200, 250)),
        ]

    def test_batch_skips_unknown_ids(self):
        oracle = simple_oracle(rate_limits_enabled=False)
        assert oracle.get_profiles([0, 99999]) is None
        # the unknown id is charged and logged, and the table has no row for it
        assert [r.nodes for r in oracle.call_log] == [(0, 99999)]
        assert 0 in oracle.profiles and 99999 not in oracle.profiles

    @pytest.mark.parametrize(
        "nodes, error",
        [(["x"], TypeError), ([1.5], TypeError), ([None], TypeError), ([2**63], ValueError),
         ([0, 2, 5, 2**64], ValueError), ([0, 2, 5, "7"], TypeError)],
    )
    def test_bad_id_raises_and_charges_nothing(self, nodes, error):
        """An id that is not an int64 integer, anywhere in the batch, raises
        before the first chunk is charged: no limiter load, count or log record."""
        oracle = simple_oracle(profile_batch=2)
        oracle.get_profiles([0, 2, 5])  # two calls: charged and logged
        before = (
            list(map(len, oracle.profiles_limiter._charges)), dict(oracle.calls_by_endpoint),
            list(oracle.call_log),
        )
        with pytest.raises(error):
            oracle.get_profiles(nodes)
        assert before == (
            list(map(len, oracle.profiles_limiter._charges)), oracle.calls_by_endpoint,
            list(oracle.call_log),
        )
        assert len(oracle.call_log) == oracle.calls_by_endpoint[oracle.PROFILES] == 2

class TestConstruction:
    def test_consistent_oracle_serves_out_neighbors(self):
        g = DirectedGraph.from_edges([(i, (i + 1) % 100) for i in range(100)])
        profiles = make_profiles(g)
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        for node in range(0, 100, 7):
            assert set(oracle.get_friends(node).friends) == set(g.successors(node))

    def test_identical_inputs_give_identical_call_logs(self, tmp_path):
        logs = []
        for run in range(2):
            oracle = simple_oracle(key_count=2)
            for _ in range(20):
                oracle.get_friends(0)
            oracle.get_profiles([0, 2, 5, 7])
            path = tmp_path / f"log{run}.jsonl"
            write_call_log(oracle.call_log, path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_repeated_queries_return_identical_payloads(self):
        oracle = simple_oracle(rate_limits_enabled=False)
        assert oracle.get_friends(0) == oracle.get_friends(0)
        assert oracle.get_profiles([5]) == oracle.get_profiles([5])

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_follows_equals_has_edge(self, data):
        nodes = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        g = DirectedGraph.from_edges(
            [(u, v) for u, v in data.draw(st.lists(pairs, max_size=30)) if u != v], nodes=nodes
        )
        oracle = build_simulated_oracle(None, make_profiles(g), rate_limits_enabled=False)
        for u, v in product([*nodes, 99], repeat=2):
            assert oracle.follows(u, v) == g.has_edge(u, v)

    def test_friend_without_profile_is_served_as_unknown(self):
        profiles = ProfileTable.from_records([
            profile_record(1, follower_count=1, friends_recent_first=[9, 2]),
            profile_record(2, follower_count=1, friends_recent_first=[1]),
        ])
        oracle = build_simulated_oracle(None, profiles, rate_limits_enabled=False)
        assert oracle.get_friends(1).friends == (9, 2)
        assert oracle.get_profiles([9, 2]) is None
        assert [r.nodes for r in oracle.call_log if r.endpoint == oracle.PROFILES] == [(9, 2)]
        assert 9 not in oracle.profiles and 2 in oracle.profiles
        assert oracle.follows(1, 9)
        assert not oracle.follows(9, 1)

    def test_follows_is_uncharged(self):
        oracle = simple_oracle()
        assert oracle.follows(0, 7)
        assert not oracle.follows(7, 0)
        assert oracle.calls_by_endpoint[oracle.FRIENDS] == 0
        assert oracle.calls_by_endpoint[oracle.PROFILES] == 0


# Small ids, and ones up to the largest an account id may be, 2**63 - 1.
ORACLE_IDS = st.one_of(st.integers(0, 30), st.integers(2**63 - 34, 2**63 - 1))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_oracle_on_a_table_answers_as_the_profiles_it_was_built_from(data, tmp_path_factory):
    """One oracle on the ProfileTable built from records, one on the table read
    back from its file: both give the answers the records hold."""
    nodes = data.draw(st.lists(ORACLE_IDS, unique=True, max_size=10))
    records = {
        node: profile_record(
            node,
            follower_count=data.draw(st.integers(0, 9)),
            friends_recent_first=data.draw(
                st.lists(ORACLE_IDS.filter(lambda v: v != node), unique=True, max_size=6)
            ),
            language=data.draw(st.sampled_from(["de", "en"])),
            protected=data.draw(st.booleans()),
        )
        for node in nodes
    }
    built = ProfileTable.from_records(records.values())
    path = tmp_path_factory.mktemp("oracle") / "profiles.jsonl"
    write_profiles(built, path)
    budget = ApiBudget(page_size=data.draw(st.integers(1, 4)), profile_batch=3)
    from_file, from_records = SimulatedOracle(read_profiles(path), budget), SimulatedOracle(built, budget)
    asked = [*nodes, 7, 2**63 - 35]

    def answer(oracle, call, *args):
        try:
            return call(oracle)(*args)
        except (NotFoundError, ProtectedError) as exc:
            return type(exc), str(exc)

    for node in asked:
        record = records.get(node)
        if record is None:
            expected = NotFoundError, f"unknown account id {node}"
        elif record["protected"]:
            expected = ProtectedError, f"account {node} is protected"
        else:
            friends = record["friends_recent_first"]
            expected = FriendsPage(tuple(friends[: budget.page_size]), len(friends) > budget.page_size)
        for oracle in (from_file, from_records):
            assert answer(oracle, lambda o: o.get_friends, node) == expected
            for target in asked:
                assert oracle.follows(node, target) == (
                    record is not None and target in record["friends_recent_first"]
                )
    batch = data.draw(st.permutations(asked))
    expected = {node: records[node] for node in batch if node in records}
    for oracle in (from_file, from_records):
        assert oracle.get_profiles(batch) is None
        table = oracle.profiles
        assert {
            node: {name: getattr(table[node], name) for name in PROFILE_FIELDS}
            for node in batch if node in table
        } == expected
    assert from_file.call_log == from_records.call_log


def reference_call_log(records):
    """write_call_log's bytes as the compact json.dumps of each record."""
    return "".join(
        json.dumps(
            {
                "t": r.t,
                "key": r.key,
                "endpoint": r.endpoint,
                "nodes": list(r.nodes),
                "calls_remaining": r.calls_remaining,
            },
            separators=(",", ":"),
        )
        + "\n"
        for r in records
    ).encode("utf-8")


class TestCallLog:
    def test_empty_log_writes_an_empty_file(self, tmp_path):
        write_call_log([], tmp_path / "log.jsonl")
        assert (tmp_path / "log.jsonl").read_bytes() == b""

    def test_oracle_log_matches_json_dumps(self, tmp_path):
        for limits in (True, False):
            g = DirectedGraph.from_edges([(node, (node + 1) % 250) for node in range(250)])
            oracle = build_simulated_oracle(
                g, make_profiles(g), key_count=2, rate_limits_enabled=limits
            )
            for node in range(40):
                oracle.get_friends(node)
            oracle.get_profiles(list(range(250)))  # chunks of 100, 100 and 50 ids
            write_call_log(oracle.call_log, tmp_path / "log.jsonl")
            assert (tmp_path / "log.jsonl").read_bytes() == reference_call_log(oracle.call_log)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        records=st.lists(
            st.builds(
                CallRecord,
                t=st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 10**6)
                ),
                key=st.one_of(st.none(), st.integers(0, 11)),
                endpoint=st.sampled_from(["friends", "profiles"]),
                nodes=st.lists(st.integers(0, 2**70), max_size=100).map(tuple),
                calls_remaining=st.one_of(st.none(), st.integers(0, 900)),
            ),
            max_size=8,
        )
    )
    def test_records_match_json_dumps(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("log") / "log.jsonl"
        write_call_log(records, path)
        assert path.read_bytes() == reference_call_log(records)


class ListLog(list):
    """The call log as a plain list of CallRecords."""

    def append(self, t, key, endpoint, nodes, calls_remaining):
        super().append(CallRecord(t, key, endpoint, tuple(nodes), calls_remaining))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_call_log_holds_the_records_a_list_would(data, tmp_path_factory):
    """Random friends and profiles calls, with rate limits on and off, on small
    ids and ones near 2**63, known and unknown: the log iterates as the list of
    CallRecords the same calls fill, writes the same bytes, equals the log of
    a second identical run and keeps the budget."""
    nodes = data.draw(st.lists(ORACLE_IDS, unique=True, max_size=8))
    table = ProfileTable.from_records(
        profile_record(
            node,
            friends_recent_first=data.draw(
                st.lists(ORACLE_IDS.filter(lambda v: v != node), unique=True, max_size=4)
            ),
            protected=data.draw(st.booleans()),
        )
        for node in nodes
    )
    budget = ApiBudget(
        key_count=data.draw(st.integers(1, 3)),
        # the most calls a window may allow, so calls remaining is near the int64 edge
        friends_calls_per_window=data.draw(st.sampled_from([1, 2, 5, 2**63 - 1])),
        friends_window_seconds=data.draw(st.sampled_from([1.0, 900.0])),
        profile_calls_per_window=data.draw(st.sampled_from([1, 3, 2**63 - 1])),
        profile_window_seconds=data.draw(st.sampled_from([0.5, 900.0])),
        profile_batch=data.draw(st.integers(1, 4)),
        rate_limits_enabled=data.draw(st.booleans()),
    )
    asked = ORACLE_IDS | st.sampled_from(nodes or [0])
    calls = data.draw(
        st.lists(
            st.tuples(st.just("friends"), asked)
            | st.tuples(st.just("profiles"), st.lists(asked, max_size=9)),
            max_size=25,
        )
    )

    def run(log=None):
        oracle = SimulatedOracle(table, budget)
        if log is not None:
            oracle.call_log = log
        for endpoint, arg in calls:
            if endpoint == "profiles":
                oracle.get_profiles(arg)
                continue
            try:
                oracle.get_friends(arg)
            except (NotFoundError, ProtectedError):
                pass
        return oracle.call_log

    log, again, expected = run(), run(), run(ListLog())
    assert len(log) == len(expected)
    assert list(log) == expected
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    write_call_log(log, path)
    assert path.read_bytes() == reference_call_log(expected)
    assert log == again
    again.append(0.0, None, "friends", [0], None)
    assert log != again
    assert_budget_safety(
        log, "friends", budget.friends_calls_per_window, budget.friends_window_seconds
    )
    assert_budget_safety(
        log, "profiles", budget.profile_calls_per_window, budget.profile_window_seconds
    )


class TestInterleavedCalls:
    def test_interleaved_calls_respect_budget(self):
        g = DirectedGraph.from_edges(
            [(source, target) for source in range(8) for target in range(100, 130)]
        )
        profiles = make_profiles(g)
        oracle = build_simulated_oracle(g, profiles, key_count=2)
        # 8 logical callers take turns, 25 calls each, on one thread
        for _ in range(25):
            for node in range(8):
                oracle.get_friends(node)
        assert oracle.calls_by_endpoint[oracle.FRIENDS] == 200
        assert_budget_safety(oracle.call_log, "friends", 15, 900.0)
        # 2 keys x 15 calls = 30 calls per 900 s, so call 200 lands in the 7th window
        assert oracle.clock.now >= 5400.0
