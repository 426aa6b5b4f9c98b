import random
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from rankwalk.graph import DirectedGraph, ProfileTable

# Sparse ids, some up to the largest an account id may be, 2**63 - 1, drawn
# in no particular order.
SPARSE_IDS = st.one_of(st.integers(0, 10**6), st.integers(2**63 - 10**6, 2**63 - 1))


def make_profiles(graph, language="de", follower_counts=None, languages=None,
                  protected=(), friends_order=None):
    """Closed-world profiles for a graph: follower_count = in-degree unless
    overridden, friends in descending-id order unless given explicitly."""
    records = []
    for node in graph.nodes:
        if friends_order and node in friends_order:
            friends = list(friends_order[node])
        else:
            friends = sorted(graph.successors(node), reverse=True)
        followers = graph.in_degree(node)
        if follower_counts and node in follower_counts:
            followers = follower_counts[node]
        records.append(profile_record(
            node,
            follower_count=followers,
            friends_recent_first=friends,
            language=(languages or {}).get(node, language),
            protected=node in protected,
        ))
    return ProfileTable.from_records(records)


def profile_record(node, **fields):
    """One profiles.jsonl record as a dict: an account with no friends,
    followers or statuses, created at time 0, unless `fields` say otherwise."""
    record = {
        "node": node, "follower_count": 0, "friends_recent_first": [], "language": "de",
        "protected": False, "created_at": 0.0, "status_count": 0, "last_status_at": None,
    }
    return {**record, **fields}


def random_digraph(n, p, seed, allow_isolated=True):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    if not allow_isolated and n > 1:
        touched = {node for edge in edges for node in edge}
        for node in range(n):
            if node not in touched:
                edges.append((node, (node + 1) % n))
                touched.update(edges[-1])
    return DirectedGraph.from_edges(edges, nodes=range(n))


def assert_edges_ascend(graph):
    """graph's rows ascend: edges() lists each edge once, in ascending
    (source id, target id) order."""
    edges = list(graph.edges())
    assert edges == sorted(set(edges))


def walked_edges(profiles, walk_log):
    """The (source id, target id) of each slot of a RunStats.walk_log, in
    order: a slot is a position in the ProfileTable's friend_ids, of the
    friend row of the account that walked."""
    slots = np.array(walk_log, np.int64)
    rows = np.searchsorted(profiles.friend_offsets, slots, side="right") - 1
    return list(zip(profiles.ids[rows].tolist(), profiles.friend_ids[slots].tolist()))


@pytest.fixture
def triangle():
    return DirectedGraph.from_edges([(0, 1), (1, 2), (2, 0)])


class ReferenceRateLimiter:
    """RateLimiter as first written: prunes every key at every key choice."""

    def __init__(self, calls_per_window, window_seconds, key_count):
        self.calls_per_window = calls_per_window
        self.window_seconds = float(window_seconds)
        self.key_count = key_count
        self._charges = [deque() for _ in range(key_count)]

    def _prune(self, key, now):
        cutoff = now - self.window_seconds
        charges = self._charges[key]
        while charges and charges[0] <= cutoff:
            charges.popleft()

    def _available_key(self, now):
        best = None
        best_load = None
        for key in range(self.key_count):
            self._prune(key, now)
            load = len(self._charges[key])
            if load < self.calls_per_window and (best_load is None or load < best_load):
                best, best_load = key, load
        return best

    def next_expiry(self):
        return min(charges[0] + self.window_seconds for charges in self._charges if charges)

    def charge(self, clock):
        key = self._available_key(clock.now)
        if key is None:
            clock.advance_to(self.next_expiry())
            key = self._available_key(clock.now)
        self._charges[key].append(clock.now)
        return key, self.calls_per_window - len(self._charges[key])
