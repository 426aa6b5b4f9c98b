"""Spans and per-call counters recorded from the benchmark's own code.

Spans mark each call into a layer's public function: name, start, end and the
index of the enclosing span. There are a few dozen per run, so they are always
on. The per-step calls inside ``run_sample`` happen ~10^5 times per crawl; for
those ``instrument`` swaps in wrappers that keep only a call count and busy
time. Wrapping is what the traced run adds, and the end-to-end numbers come
from runs without it.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def names(self) -> list[str]:
        return list(dict.fromkeys(span[0] for span in self.spans))

    def seconds(self, name: str) -> float:
        """Total duration of the spans with this name (0.0 when none ran)."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class _Stat:
    __slots__ = ("calls", "busy")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0


def instrument(tracer: Tracer, oracle, sampler_module, refused_errors) -> Callable[[], None]:
    """Wrap the oracle's per-step methods, each limiter's ``charge`` and
    ``sampler.select_target`` with count-and-busy-time wrappers.

    Returns a function that removes the wrappers and moves the totals into
    ``tracer.counts``. The library is left unchanged: instance attributes
    shadow the methods, and the module attribute is restored.
    """
    friends, profiles, follows, limiter, select = (_Stat() for _ in range(5))
    extra = {"refused": 0, "friend_ids": 0, "profile_ids": 0, "blocked": 0, "scanned": 0}

    inner_friends = oracle.get_friends
    inner_profiles = oracle.get_profiles
    inner_follows = oracle.follows
    inner_select = sampler_module.select_target

    def get_friends(node):
        start = perf_counter()
        try:
            page = inner_friends(node)
        except refused_errors:
            extra["refused"] += 1
            raise
        finally:
            friends.busy += perf_counter() - start
            friends.calls += 1
        extra["friend_ids"] += len(page.friends)
        return page

    def get_profiles(nodes):
        extra["profile_ids"] += len(nodes)
        start = perf_counter()
        try:
            return inner_profiles(nodes)
        finally:
            profiles.busy += perf_counter() - start
            profiles.calls += 1

    def follows_(source, target):
        start = perf_counter()
        try:
            return inner_follows(source, target)
        finally:
            follows.busy += perf_counter() - start
            follows.calls += 1

    def select_target(w, friends_page, profiles_, burn, config):
        extra["scanned"] += len(friends_page)
        start = perf_counter()
        try:
            return inner_select(w, friends_page, profiles_, burn, config)
        finally:
            select.busy += perf_counter() - start
            select.calls += 1

    def wrap_charge(inner_charge):
        def charge(clock):
            before = clock.now
            start = perf_counter()
            try:
                return inner_charge(clock)
            finally:
                limiter.busy += perf_counter() - start
                limiter.calls += 1
                if clock.now > before:
                    extra["blocked"] += 1

        return charge

    limiters = [lim for lim in (oracle.friends_limiter, oracle.profiles_limiter) if lim is not None]
    oracle.get_friends = get_friends
    oracle.get_profiles = get_profiles
    oracle.follows = follows_
    for lim in limiters:
        lim.charge = wrap_charge(lim.charge)
    sampler_module.select_target = select_target

    def remove() -> None:
        for name in ("get_friends", "get_profiles", "follows"):
            delattr(oracle, name)
        for lim in limiters:
            del lim.charge
        sampler_module.select_target = inner_select
        for prefix, stat in (
            ("oracle.get_friends", friends),
            ("oracle.get_profiles", profiles),
            ("oracle.follows", follows),
            ("oracle.limiter", limiter),
            ("sampler.select_target", select),
        ):
            tracer.add(prefix + ".calls", stat.calls)
            tracer.add(prefix + ".busy_s", stat.busy)
        tracer.add("oracle.get_friends.refused", extra["refused"])
        tracer.add("oracle.limiter.blocked_calls", extra["blocked"])
        tracer.add("sampler.select_target.friends_scanned", extra["scanned"])
        tracer.add("oracle.friend_ids_served", extra["friend_ids"])
        tracer.add("oracle.profile_ids_requested", extra["profile_ids"])

    return remove
