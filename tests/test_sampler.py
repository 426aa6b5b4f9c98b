import gc
import json
import random
import tempfile
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankwalk.generate import build_profiles, preferential_attachment, reciprocal_er
from rankwalk.graph import PROFILE_FIELDS, DirectedGraph, ProfileTable, _read_lines, parse_id
from rankwalk import sampler as sampler_module
from rankwalk.oracle import (
    ApiBudget,
    SimulatedClock,
    SimulatedOracle,
    assert_budget_safety,
    build_simulated_oracle,
    write_call_log,
)
from rankwalk.sampler import (
    PROVENANCES,
    SYMMETRIC,
    WALKED,
    Crawl,
    RunState,
    SampleGraph,
    SamplerConfig,
    SeedPool,
    load_run_state,
    read_sample_csv,
    run_sample,
    save_run_state,
    select_target,
    write_growth_csv,
    write_sample_csv,
    write_stats_json,
)

from conftest import ReferenceRateLimiter, assert_edges_ascend, make_profiles, random_digraph


def config(**kwargs):
    defaults = dict(
        target_language="de",
        walker_count=1,
        max_sample_edges=10**9,
        max_steps=10**6,
        language_filter_enabled=True,
    )
    defaults.update(kwargs)
    return SamplerConfig(**defaults)


class TestSamplerConfig:
    def test_requires_a_stop_condition(self):
        with pytest.raises(ValueError, match="stop condition"):
            SamplerConfig()

    def test_accepts_any_single_stop(self):
        SamplerConfig(max_sample_nodes=5)
        SamplerConfig(max_simulated_seconds=60.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_sample_nodes", -1),
            ("max_sample_edges", -3),
            ("max_simulated_seconds", -5.0),
            ("max_simulated_seconds", float("nan")),
            ("max_steps", -1),
        ],
    )
    def test_rejects_negative_or_nan_stop(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value}$"):
            SamplerConfig(**{"max_sample_edges": 10, name: value})


class TestSeedPool:
    def test_reproducible_draws(self):
        a = SeedPool([1, 2, 3, 4], 42)
        b = SeedPool([1, 2, 3, 4], 42)
        assert [a.draw() for _ in range(20)] == [b.draw() for _ in range(20)]

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            SeedPool([], 0)


def sample_of(walked=(), symmetric=()):
    """A SampleGraph holding `walked` in walk order and the `symmetric` edges."""
    sample = SampleGraph()
    for edge in walked:
        sample.add_edge(*edge, WALKED)
    for edge in symmetric:
        sample.add_edge(*edge, SYMMETRIC)
    return sample


def seed_node_records(sample, path):
    """The nodes of the `seed_node` records that save_run_state writes for
    `sample`, in file order."""
    save_run_state(path, sample, [0], 0.0, SeedPool([0], 0))
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return [record["n"] for record in records if record["type"] == "seed_node"]


def rows_of(profiles, nodes):
    """The row of each id of `nodes` in `profiles`, len(profiles) for one with no row."""
    return profiles.rows(np.array(list(nodes), np.int64)).tolist()


def crawl_rows(crawl, nodes):
    """The crawl's row of each id of `nodes`."""
    index = {node: row for row, node in enumerate(crawl.ids)}
    return [index[node] for node in nodes]


def looked_up(profiles, cfg, nodes=None):
    """A Crawl over `profiles` under `cfg` that records the profile lookup of
    `nodes`, ids the crawl numbers (every account's by default), as charged,
    so select_target ranks each of them that has a profile."""
    crawl = Crawl(cfg, SimulatedOracle(profiles), SeedPool([0], 0))
    for row in crawl_rows(crawl, profiles if nodes is None else nodes):
        crawl.looked_up[row] = 1
    return crawl


def select(w, page, crawl, sample, cfg):
    """select_target in ids: the id it picks for a walker on `w` among the
    friend ids `page`, or None."""
    pick = select_target(crawl_rows(crawl, [w])[0], crawl_rows(crawl, page), crawl, sample, cfg)
    return None if pick is None else crawl.ids[pick]


class TestSelectTarget:
    def fixture(self):
        g = DirectedGraph.from_edges([(0, 5), (0, 9), (0, 3)])
        profiles = make_profiles(
            g, follower_counts={5: 10, 9: 99, 3: 99}
        )
        return g, profiles

    def test_tie_broken_by_lowest_id(self):
        _, profiles = self.fixture()
        cfg = config()
        got = select(0, [5, 9, 3], looked_up(profiles, cfg), SampleGraph(), cfg)
        assert got == 3

    def test_burned_and_language_mismatch_excluded(self):
        g = DirectedGraph.from_edges([(0, 5), (0, 9)])
        profiles = make_profiles(
            g, follower_counts={5: 10, 9: 3}, languages={9: "en"}
        )
        sample, cfg = sample_of(walked=[(0, 5)]), config()
        assert select(0, [5, 9], looked_up(profiles, cfg), sample, cfg) is None

    def test_language_filter_can_be_disabled(self):
        g = DirectedGraph.from_edges([(0, 9)])
        profiles = make_profiles(g, languages={9: "en"})
        cfg = config()
        assert select(0, [9], looked_up(profiles, cfg), SampleGraph(), cfg) is None
        cfg = config(language_filter_enabled=False)
        assert select(0, [9], looked_up(profiles, cfg), SampleGraph(), cfg) == 9

    def test_matches_brute_force_argmax(self):
        """Burned: the walked edges, and under original_rank_degree the
        symmetric ones too, where the score also loses the sample in-degree."""
        rng = random.Random(4)
        for original in [False, True] * 30:
            friends = rng.sample(range(1, 60), 20)
            g = DirectedGraph.from_edges([(0, v) for v in friends])
            followers = {v: rng.randint(0, 40) for v in friends}
            languages = {v: rng.choice(["de", "en"]) for v in friends}
            walked = [(0, v) for v in friends if rng.random() < 0.3]
            symmetric = [(0, v) for v in friends if rng.random() < 0.2]
            symmetric += [(rng.randrange(60, 70), rng.choice(friends)) for _ in range(30)]
            sample = sample_of(walked, symmetric)
            profiles = make_profiles(g, follower_counts=followers, languages=languages)
            cfg = config(original_rank_degree=original)
            burned = set(walked) | (set(symmetric) if original else set())
            eligible = [v for v in friends if languages[v] == "de" and (0, v) not in burned]
            into = Counter(t for _, t in set(walked) | set(symmetric))
            score = {v: followers[v] - (into[v] if original else 0) for v in friends}
            expected = min(eligible, key=lambda v: (-score[v], v)) if eligible else None
            assert select(0, friends, looked_up(profiles, cfg), sample, cfg) == expected


SEED = "seed"


class DictProvenanceSampleGraph:
    """SampleGraph as first written, on plain dicts in insertion order: a
    provenance entry (`walked`, `symmetric` or `seed`) for every sample node
    and every sample edge."""

    def __init__(self):
        self._edge_provenance = {}
        self._node_provenance = {}

    def add_seed(self, node):
        self._node_provenance.setdefault(node, SEED)

    def add_edge(self, source, target, provenance):
        added = (source, target) not in self._edge_provenance
        if added or provenance == WALKED:
            self._edge_provenance[(source, target)] = provenance
        self._node_provenance.setdefault(source, provenance)
        self._node_provenance.setdefault(target, provenance)
        return added

    def edges_with_provenance(self):
        return [(s, t, p) for (s, t), p in sorted(self._edge_provenance.items())]

    def assert_graph_equal(self, graph):
        """graph shows every node and edge added so far: nodes, and each row, in
        ascending id order."""
        nodes, edges = sorted(self._node_provenance), list(self._edge_provenance)
        assert list(graph.nodes) == nodes
        assert list(graph.edges()) == sorted(edges)
        for node in nodes:
            assert graph.in_degree(node) == sum(t == node for s, t in edges)


class TestSampleGraph:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.none(),  # read sample.graph
                st.integers(0, 6),  # add_seed
                st.tuples(
                    st.integers(0, 6), st.integers(0, 6), st.sampled_from([WALKED, SYMMETRIC])
                ).filter(lambda op: op[0] != op[1]),
            ),
            max_size=60,
        )
    )
    def test_equals_dict_provenance_reference(self, ops, tmp_path_factory):
        sample, reference = SampleGraph(), DictProvenanceSampleGraph()
        for op in ops:
            if op is None:
                graph, codes = sample.graph, sample.codes
                reference.assert_graph_equal(graph)
                # cached until the next change
                assert sample.graph is graph and sample.codes is codes
            elif isinstance(op, int):
                sample.add_seed(op)
                reference.add_seed(op)
            else:
                assert sample.add_edge(*op) == reference.add_edge(*op)
        reference.assert_graph_equal(sample.graph)
        # every node in insertion order; the seeds among them are the
        # seed_node records checked below
        assert list(sample._nodes) == list(reference._node_provenance)
        rows = reference.edges_with_provenance()
        assert edge_rows(sample) == rows
        assert provenance_codes(rows).tolist() == sample.codes.tolist()
        assert sample.codes.dtype == np.uint8
        assert sample.num_nodes() == len(reference._node_provenance)
        assert sample.num_edges() == len(rows)
        # one code per edge, in the order the edges joined; a walked
        # symmetric edge's code turns 0 in place
        assert list(sample._provenance.items()) == [
            (edge, PROVENANCES.index(p)) for edge, p in reference._edge_provenance.items()
        ]
        graph = sample.graph
        for node in graph.nodes:
            assert sample._in_degree.get(node, 0) == graph.in_degree(node)
        assert sum(sample._in_degree.values()) == len(rows)
        # the written file reads back with nodes in ascending id order
        directory = tmp_path_factory.mktemp("sample")
        seeds = sorted(n for n, p in reference._node_provenance.items() if p == SEED)
        assert seed_node_records(sample, directory / "resume.jsonl") == seeds
        path = directory / "sample.csv"
        write_sample_csv(sample, path)
        read, codes = read_sample_csv(path)
        assert read.ids == sorted(read.ids)
        assert list(read.edges()) == [(s, t) for s, t, _ in rows]
        assert_same_sample(read, codes, sample.graph, sample.codes)
        # and its rows ascend whatever the order of the file's rows
        body = "".join(f"{s},{t},{p}\n" for s, t, p in reversed(rows))
        path.write_text("source,target,provenance\n" + body)
        read, _ = read_sample_csv(path)
        assert_edges_ascend(read)
        assert list(read.edges()) == [(s, t) for s, t, _ in rows]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SampleGraph().add_edge(3, 3, WALKED)

    def test_rejects_unknown_provenance(self):
        sample = SampleGraph()
        with pytest.raises(ValueError, match="'walked' or 'symmetric', got 'walk'"):
            sample.add_edge(1, 2, "walk")
        assert sample.num_edges() == sample.num_nodes() == 0

    def test_absent_edge_has_no_provenance(self):
        sample = SampleGraph()
        sample.add_edge(1, 2, SYMMETRIC)
        assert edge_rows(sample) == [(1, 2, SYMMETRIC)]


def edge_rows(sample):
    """(source, target, provenance) of each sample edge, ascending (source, target)."""
    edges, codes = sample.graph.edges(), sample.codes.tolist()
    return [(s, t, PROVENANCES[code]) for (s, t), code in zip(edges, codes)]


def provenance_codes(rows):
    """The provenance code of each (source, target, provenance) row."""
    return np.array([PROVENANCES.index(p) for *_, p in rows], np.uint8)


def edge_ids(graph):
    """The source ids and the target ids of the graph's edges, in edges() order."""
    ids = np.array(graph.ids, np.int64)
    return ids[graph.edge_sources()], ids[graph.out_targets]


def assert_same_sample(graph, codes, expected_graph, expected_codes):
    """Two samples in column form hold the same edges, in the same order,
    with the same codes, array for array; a node without an edge, which no
    sample file holds, is not compared."""
    for got, expected in zip(edge_ids(graph), edge_ids(expected_graph)):
        assert np.array_equal(got, expected)
    assert codes.dtype == expected_codes.dtype == np.uint8
    assert np.array_equal(codes, expected_codes)


def dict_read_sample_csv(path):
    """read_sample_csv as it was, on a dict of edge tuples with each row
    checked in turn: the reference for the column reader."""
    provenance = {}

    def add(line):
        parts = line.split(",")
        if len(parts) != 3 or parts[2] not in (WALKED, SYMMETRIC):
            raise ValueError(f"malformed sample row {line!r}")
        u, v = parse_id(parts[0]), parse_id(parts[1])
        if u == v:
            raise ValueError(f"self-loop {u},{v}")
        if (u, v) in provenance:
            raise ValueError(f"edge {u},{v} listed twice")
        provenance[(u, v)] = parts[2]

    _read_lines(path, add, header="source,target,provenance")
    return DirectedGraph.from_edges(provenance), provenance


# Ids up to the largest, 2**63 - 1, and the rows of a sample file in the forms
# a reader must accept: CRLF and CR line ends, blank lines, padding, '+' signs.
SAMPLE_IDS = st.one_of(st.integers(0, 30), st.integers(2**63 - 5, 2**63 - 1), st.integers(0, 2**63 - 1))
SAMPLE_ROW_FORMS = st.sampled_from([
    "{},{},{}\n", "{},{},{}\r\n", "{},{},{}\r", " {} , {} ,{}\n", "+{},{},{}  \r\n",
    "\n{},{},{}\n", "\r\n \t\r\n{},{},{}\n",
])
SAMPLE_HEADERS = st.sampled_from([
    "source,target,provenance\n", "source,target,provenance\r\n", " source,target,provenance \n",
])
# Rows that no sample file may hold: a wrong field count, a provenance that is
# not exactly walked or symmetric, a self-loop, an id that is not one.
BAD_SAMPLE_ROWS = st.sampled_from([
    "1,2", "1,2,walked,x", "bogus", "1,2,seed", "1,2, walked", "1,2,Walked", "7,7,walked",
    "+7, 7 ,symmetric", "-1,2,walked", "1_0,2,walked", "x,2,walked", "\u0663,2,walked",
    "1,,walked", "9223372036854775808,2,walked",
])


def draw_sample_rows(data):
    """Distinct sample edges, each with a provenance, in any order."""
    edges = data.draw(st.lists(
        st.tuples(SAMPLE_IDS, SAMPLE_IDS).filter(lambda e: e[0] != e[1]), unique=True, max_size=40
    ))
    rows = [(u, v, data.draw(st.sampled_from([WALKED, SYMMETRIC]))) for u, v in edges]
    return sorted(rows) if data.draw(st.booleans()) else rows


class TestReadSampleCsv:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_equals_dict_reader(self, data, tmp_path_factory):
        rows = draw_sample_rows(data)
        body = "".join(data.draw(SAMPLE_ROW_FORMS).format(*row) for row in rows)
        path = tmp_path_factory.mktemp("sample") / "sample.csv"
        path.write_bytes((data.draw(SAMPLE_HEADERS) + body).encode())

        graph, codes = read_sample_csv(path)
        expected_graph, expected = dict_read_sample_csv(path)
        assert graph.ids == expected_graph.ids
        assert list(graph.edges()) == list(expected_graph.edges())
        assert np.array_equal(graph.in_degrees, expected_graph.in_degrees)
        assert np.array_equal(graph.out_offsets, expected_graph.out_offsets)
        # one code an edge, aligned with the graph's edges, ascending (source, target)
        expected_codes = provenance_codes((*edge, expected[edge]) for edge in sorted(expected))
        assert_same_sample(graph, codes, expected_graph, expected_codes)
        assert [PROVENANCES[c] for c in codes.tolist()] == [expected[e] for e in graph.edges()]

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_fault_gives_the_dict_readers_message(self, data, tmp_path_factory):
        """A bad row, a repeated edge or a byte that is not UTF-8, one or more
        of them anywhere in the file: the first fault the dict reader meets is
        reported with its message and line, a repeat before a bad row too."""
        rows = draw_sample_rows(data) or [(1, 2, WALKED)]
        lines = [data.draw(SAMPLE_ROW_FORMS).format(*row).encode() for row in rows]
        faults = data.draw(st.lists(
            st.one_of(
                BAD_SAMPLE_ROWS.map(lambda row: (row + "\n").encode()),
                st.sampled_from([b"1,\xff2,walked\n", b"\xfe\n"]),
                st.just(None),  # a repeat of a row already in the file
            ),
            min_size=1, max_size=3,
        ))
        for fault in faults:
            if fault is None:
                u, v, _ = data.draw(st.sampled_from(rows))
                fault = f"{u},{v},{data.draw(st.sampled_from([WALKED, SYMMETRIC]))}\n".encode()
            lines.insert(data.draw(st.integers(0, len(lines))), fault)
        path = tmp_path_factory.mktemp("sample") / "sample.csv"
        path.write_bytes(b"source,target,provenance\n" + b"".join(lines))

        with pytest.raises(ValueError) as expected:
            dict_read_sample_csv(path)
        with pytest.raises(ValueError) as got:
            read_sample_csv(path)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("body, message", [
        ("1,2,walked\n2,3,walked\n1,2,symmetric\n", "line 4: edge 1,2 listed twice"),
        ("1,2,walked\n\n2,1,walked\n1,2,walked\nbogus\n", "line 5: edge 1,2 listed twice"),
        ("1,2,walked\nbogus\n1,2,walked\n", "line 3: malformed sample row 'bogus'"),
        ("1,2,walked\n2,1,seed\n", "line 3: malformed sample row '2,1,seed'"),
        ("1,2\n", "line 2: malformed sample row '1,2'"),
        ("1,2,walked\n3,3,symmetric\n", "line 3: self-loop 3,3"),
        ("1,2,walked\n1_0,2,walked\n", "line 3: expected a non-negative integer account id, got '1_0'"),
    ])
    def test_fault_message_and_line(self, tmp_path, body, message):
        path = tmp_path / "sample.csv"
        path.write_text("source,target,provenance\n" + body)
        for reader in (dict_read_sample_csv, read_sample_csv):
            with pytest.raises(ValueError) as info:
                reader(path)
            assert str(info.value) == f"{path}: {message}"

    def test_repeat_before_a_later_blocks_bad_byte(self, tmp_path):
        """The text decoder reads the file in blocks, so a byte that is not
        UTF-8 fails before the rows of its own block are read: a repeat in an
        earlier block is reported, one in the same block is not."""
        rows = "".join(f"{i},{i + 1},walked\n" for i in range(1, 2000))
        path = tmp_path / "sample.csv"
        for body, message in [
            ("1,2,walked\n" + rows + "\xff\n", "edge 1,2 listed twice"),
            (rows + "1,2,walked\n\xff\n", "invalid start byte"),
        ]:
            path.write_bytes(("source,target,provenance\n" + body).encode("latin-1"))
            for reader in (dict_read_sample_csv, read_sample_csv):
                with pytest.raises(ValueError, match=message):
                    reader(path)

    @pytest.mark.memory
    def test_keeps_under_64_and_peaks_under_128_bytes_per_edge(self, tmp_path):
        """The dict of edge tuples with a provenance str a row kept 224 B an
        edge and peaked at 276 on this file; the id column and provenance
        bytes keep 24 and peak at 75, mostly the graph and the sort's copies."""
        rng = random.Random(3)
        edges = set()
        while len(edges) < 30_000:
            u, v = rng.randrange(10_000) * 7 + 100, rng.randrange(10_000) * 7 + 100
            if u != v:
                edges.add((u, v))
        path = tmp_path / "sample.csv"
        path.write_text("source,target,provenance\n" + "".join(
            f"{u},{v},{rng.choice([WALKED, SYMMETRIC])}\n" for u, v in sorted(edges)
        ))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph, codes = read_sample_csv(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_edges() == len(codes) == len(edges)
        assert (kept - before) / len(edges) < 64
        assert (peak - before) / len(edges) < 128


def build_oracle(edges, nodes=(), **profile_kwargs):
    g = DirectedGraph.from_edges(edges, nodes=nodes)
    profiles = make_profiles(g, **profile_kwargs)
    return g, build_simulated_oracle(g, profiles, rate_limits_enabled=False)


def crawl_from(oracle, walkers, pool_ids, cfg=None, walked=(), symmetric=()):
    """A Crawl over `oracle` whose walkers stand on `walkers`, in step order,
    with `walked` and then `symmetric` in its sample and jumps drawn from
    `pool_ids`, started as a resumed run starts."""
    pool = SeedPool(pool_ids, 0)
    sample = SampleGraph()
    for provenance, edges in ((WALKED, walked), (SYMMETRIC, symmetric)):
        for source, target in edges:
            sample.add_edge(source, target, provenance)
    state = RunState(oracle.clock.now, pool.getstate(), sample, list(walkers))
    return Crawl(cfg or config(), oracle, pool, state)


class TestWalkerStep:
    """One step of a walker, taken by Crawl.step()."""

    def test_walks_best_edge(self):
        g, oracle = build_oracle([(1, 2), (2, 3)])
        crawl = crawl_from(oracle, [1], [1])
        crawl.step()
        assert crawl.walker_ids() == [2]
        sample = crawl.sample
        assert crawl.stats.walk_log == [(1, 2)]
        assert sample._provenance == {(1, 2): 0}
        assert sample.graph.has_edge(1, 2)
        assert not sample.graph.has_edge(2, 3)

    def test_reciprocal_pair_adds_symmetric_without_burning(self):
        g, oracle = build_oracle([(1, 2), (2, 1)])
        crawl = crawl_from(oracle, [1], [1])
        crawl.step()
        assert crawl.walker_ids() == [2]
        sample = crawl.sample
        assert sample.graph.has_edge(1, 2) and sample.graph.has_edge(2, 1)
        assert edge_rows(sample) == [(1, 2, WALKED), (2, 1, SYMMETRIC)]
        assert crawl.stats.walk_log == [(1, 2)]
        # the walker, now at 2, may still walk (2, 1)
        crawl.step()
        assert crawl.stats.walk_log == [(1, 2), (2, 1)]
        assert edge_rows(sample) == [(1, 2, WALKED), (2, 1, WALKED)]

    @pytest.mark.parametrize("add_symmetric_edge", [True, False])
    def test_original_rank_degree_burns_the_reciprocal_edge(self, add_symmetric_edge):
        _, oracle = build_oracle([(1, 2), (2, 1)])
        cfg = config(original_rank_degree=True, add_symmetric_edge=add_symmetric_edge)
        crawl = crawl_from(oracle, [1], [1], cfg)
        crawl.step()
        assert crawl.walker_ids() == [2]
        assert edge_rows(crawl.sample) == [(1, 2, WALKED), (2, 1, SYMMETRIC)]
        # the reverse edge is burned, so the walker at 2 jumps
        crawl.step()
        assert crawl.walker_ids() == [1]
        assert crawl.stats.walk_log == [(1, 2)]
        assert crawl.sample._provenance == {(1, 2): 0, (2, 1): 1}

    def test_dead_end_jumps_without_burning(self, tmp_path):
        g, oracle = build_oracle([(1, 2)])
        crawl = crawl_from(oracle, [2], [7])
        crawl.step()
        assert crawl.walker_ids() == [7]
        assert crawl.sample.num_edges() == 0
        assert seed_node_records(crawl.sample, tmp_path / "resume.jsonl") == [7]

    def test_reburn_aborts_the_step(self, monkeypatch):
        _, oracle = build_oracle([(1, 2)])
        # a selector that ignores the burn rule: it picks account 2's row
        row = rows_of(oracle.profiles, [2])[0]
        monkeypatch.setattr(sampler_module, "select_target", lambda *args: row)
        for walked, symmetric, original in [
            ([(1, 2)], [], False), ([(1, 2)], [], True), ([], [(1, 2)], True)
        ]:
            cfg = config(original_rank_degree=original)
            crawl = crawl_from(oracle, [1], [1], cfg, walked, symmetric)
            rows = edge_rows(crawl.sample)
            with pytest.raises(RuntimeError, match="after it was burned"):
                crawl.step()
            assert edge_rows(crawl.sample) == rows

    def test_unknown_current_node_jumps(self):
        _, oracle = build_oracle([(1, 2)])
        crawl = crawl_from(oracle, [999], [1])
        crawl.step()
        assert crawl.walker_ids() == [1]

    def test_ids_with_no_profile_get_one_row_each(self):
        """A friend (9), pool (5, 5, 7) or resumed-walker (8) id with no
        profile gets one row from no_profile on, in id order. A walker on one
        is refused, uncharged, and jumps; the run is exhausted once the last
        two steps jumped and both pool ids were jumped from, after 7 steps,
        as before these ids had rows."""
        g = DirectedGraph.from_edges([(1, 2), (2, 1), (1, 9)])
        oracle = SimulatedOracle(without_profiles(make_profiles(g), {9}))
        crawl = crawl_from(oracle, [8, 5], [5, 5, 7])
        assert crawl.no_profile == 2 and list(crawl.ids) == [1, 2, 5, 7, 8, 9]
        assert list(crawl.pool_rows) == [2, 2, 3]
        assert crawl.walker_ids() == [8, 5]
        stood = []
        while crawl.stop_reason() is None:
            stood.append(crawl.walker_ids()[crawl.cursor])
            crawl.step()
            assert crawl.jump_run == len(stood)
        assert crawl.finish().stop_reason == "exhausted"
        assert stood == [8, 5, 5, 5, 5, 5, 7]
        assert len(stood) == next(s for s in range(2, 8) if {5, 7} <= set(stood[:s]))
        assert len(oracle.call_log) == 0 and set(crawl.page_length) == {-1}

    def test_protected_current_node_jumps(self):
        g = DirectedGraph.from_edges([(1, 2), (3, 1)])
        profiles = make_profiles(g, protected={1})
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        crawl = crawl_from(oracle, [1], [3])
        crawl.step()
        assert crawl.walker_ids() == [3]

    def test_page_cache_serves_a_revisit_without_a_call(self):
        _, oracle = build_oracle([(1, 2), (1, 3)], nodes=[9], protected={9})
        # two walkers on 1, then the refused accounts 9 and 999
        crawl = crawl_from(oracle, [1, 1, 9, 999], [1])
        crawl.step()
        crawl.step()
        assert crawl.walker_ids()[:2] == [2, 3]
        row = rows_of(oracle.profiles, [1])[0]
        page = oracle.profiles.friends(row)[: crawl.page_length[row]].tolist()
        assert page == list(oracle.get_friends(1).friends)
        assert oracle.calls_by_endpoint[oracle.FRIENDS] == 2  # the step's call and this one
        # refused accounts jump, uncharged and uncached
        crawl.step()
        crawl.step()
        cached = [i for i, length in enumerate(crawl.page_length) if length >= 0]
        assert cached == [row] and oracle.calls_by_endpoint[oracle.FRIENDS] == 2


def fixture_inputs(seed=0, n=120, p=0.06):
    """A reciprocal random graph, an oracle over its profiles and a seed pool."""
    rng = random.Random(seed)
    edges = reciprocal_er(n, p, rng)
    g = DirectedGraph.from_edges(edges, nodes=range(n))
    profiles = build_profiles(n, edges, random.Random(seed + 1), language_fraction=1.0)
    oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
    return g, oracle, SeedPool(sorted(g.nodes), seed)


def run_fixture(seed=0, n=120, p=0.06, **config_kwargs):
    g, oracle, pool = fixture_inputs(seed, n, p)
    sample, stats = run_sample(config(**config_kwargs), oracle, pool)
    return g, sample, stats


class TestRunSample:
    def test_zero_edge_budget_means_no_calls(self):
        g, oracle = build_oracle([(1, 2), (2, 3)])
        pool = SeedPool([1], 0)
        sample, stats = run_sample(config(max_sample_edges=0), oracle, pool)
        assert sample.num_edges() == 0
        assert stats.steps == 0
        assert oracle.calls_by_endpoint[oracle.FRIENDS] == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_walk_restores_gc_state(self, enabled):
        states = []

        def run(get_friends):
            """run_sample on an oracle whose get_friends is get_friends(real, node)."""
            _, oracle, pool = fixture_inputs(seed=3)
            real = oracle.get_friends
            oracle.get_friends = lambda node: get_friends(real, node)
            run_sample(config(max_sample_edges=50), oracle, pool)

        def recording_gc(real, node):
            states.append(gc.isenabled())
            return real(node)

        (gc.enable if enabled else gc.disable)()
        try:
            run(recording_gc)
            assert states and not any(states)  # the walk ran with the GC paused
            assert gc.isenabled() == enabled
            with pytest.raises(ZeroDivisionError):
                run(lambda real, node: 1 / 0)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    def test_no_edge_walked_twice(self):
        _, _, stats = run_fixture(seed=3, max_sample_edges=300)
        log = stats.walk_log
        assert len(log) == len(set(log))

    def test_sample_soundness(self):
        g, sample, _ = run_fixture(seed=4, max_sample_edges=300)
        for s, t, _prov in edge_rows(sample):
            assert g.has_edge(s, t)

    def test_symmetric_edges_have_ground_truth_reverse(self):
        g, sample, _ = run_fixture(seed=5, max_sample_edges=300)
        for s, t, prov in edge_rows(sample):
            if prov == SYMMETRIC:
                assert g.has_edge(t, s)

    def test_monotone_growth(self):
        _, _, stats = run_fixture(seed=6, max_sample_edges=400)
        edge_counts = [edges for _, edges, _ in stats.growth]
        assert edge_counts == sorted(edge_counts)

    @pytest.mark.memory
    def test_call_log_and_growth_keep_at_most_48_bytes_a_record(self):
        """Both keep typed columns, no object per record: a list of CallRecords
        and of growth tuples retains ~150 B a record on this run."""
        n = 2000
        edges = preferential_attachment(n, 3, random.Random(1))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(2), language_fraction=0.9)
        oracle = build_simulated_oracle(g, profiles)
        cfg = config(walker_count=20, max_sample_edges=1500)
        tracemalloc.start()
        try:
            _, stats = run_sample(cfg, oracle, SeedPool(range(n), 3))
            records = len(oracle.call_log) + len(stats.growth)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            oracle.call_log = stats.growth = None
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert records > 2000
        assert retained / records <= 48

    @pytest.mark.memory
    def test_crawl_keeps_at_most_48_bytes_an_account(self):
        """A Crawl's state is per-row columns, no Python object per account:
        page_length, looked_up and not_jumped, 10 B a row, and the int32
        pool_rows and friend_rows, 4 B a pool id and a friend, ~34 B an
        account here; with not_jumped a set of the pool's ids, a Crawl kept
        ~115 B an account."""
        n = 20_000
        edges = preferential_attachment(n, 5, random.Random(1))
        oracle = SimulatedOracle(build_profiles(n, edges, random.Random(2)))
        pool = SeedPool(range(n), 3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            crawl = Crawl(config(walker_count=200), oracle, pool)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(crawl.walkers) == 200
        assert kept / n <= 48

    def test_friends_calls_match_distinct_accounts_on_clean_graph(self):
        # every node exists and is unprotected, so each account's page is fetched once
        _, _, stats = run_fixture(seed=7, max_sample_edges=200)
        _, oracle, pool = fixture_inputs(seed=7)
        _, stood, _ = record_walk(config(max_sample_edges=200), oracle, pool)
        assert stats.friends_calls == len(set(stood)) < stats.steps == len(stood)

    def test_language_purity_with_prefiltered_pool(self):
        n = 80
        rng = random.Random(11)
        edges = reciprocal_er(n, 0.08, rng)
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(12), language_fraction=0.6)
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        pool_ids = [v for v in sorted(g.nodes) if profiles[v].language == "de"]
        sample, _ = run_sample(
            config(max_sample_edges=150, max_steps=20000),
            oracle,
            SeedPool(pool_ids, 1),
        )
        for node in sample.graph.nodes:
            assert profiles[node].language == "de"

    def test_friend_without_a_profile_is_looked_up_once(self):
        g = DirectedGraph.from_edges([(1, 2), (2, 1), (1, 3), (3, 1), (1, 99)])
        profiles = without_profiles(make_profiles(g), {99})
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        _, stats = run_sample(config(), oracle, SeedPool([1], 0))
        assert stats.walk_log == [(1, 2), (2, 1), (1, 3), (3, 1)]
        assert stats.stop_reason == "exhausted"
        assert stats.profile_calls == 2
        assert sorted(profile_lookups(oracle)) == [1, 2, 3, 99]

    def test_walker_count_walkers_spawned(self):
        _, sample, stats = run_fixture(seed=8, walker_count=4, max_sample_edges=100)
        assert len(stats.final_walkers) == 4
        # a walker stands on a seed or on the target of its last walk
        assert set(stats.final_walkers) <= set(sample.graph.nodes)

    def test_deterministic_mode_reproducible(self, tmp_path):
        outputs = []
        for run in range(2):
            _, sample, stats = run_fixture(seed=9, walker_count=4, max_sample_edges=200)
            path = tmp_path / f"sample{run}.csv"
            write_sample_csv(sample, path)
            outputs.append((path.read_bytes(), tuple(stats.walk_log)))
        assert outputs[0] == outputs[1]

    def test_deterministic_keyword_is_ignored(self):
        def run(**kwargs):
            g, oracle = build_oracle(reciprocal_er(40, 0.15, random.Random(3)), nodes=range(40))
            sample, _ = run_sample(
                config(walker_count=3, max_sample_edges=60), oracle, SeedPool(range(40), 1),
                **kwargs,
            )
            return edge_rows(sample), oracle.call_log

        assert run() == run(deterministic=True) == run(deterministic=False)

    def test_call_logs_reproducible(self, tmp_path):
        logs = []
        for run in range(2):
            rng = random.Random(21)
            edges = reciprocal_er(60, 0.1, rng)
            g = DirectedGraph.from_edges(edges, nodes=range(60))
            profiles = build_profiles(60, edges, random.Random(22), language_fraction=1.0)
            oracle = build_simulated_oracle(g, profiles, key_count=2)
            pool = SeedPool(sorted(g.nodes), 5)
            run_sample(config(walker_count=4, max_sample_edges=120), oracle, pool)
            path = tmp_path / f"log{run}.jsonl"
            write_call_log(oracle.call_log, path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_budget_conformance_under_rate_limits(self):
        n = 200
        rng = random.Random(31)
        edges = preferential_attachment(n, 3, rng)
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(32), language_fraction=1.0)
        oracle = build_simulated_oracle(
            g, profiles, key_count=2, friends_calls_per_window=15, friends_window_seconds=900.0
        )
        pool = SeedPool(sorted(g.nodes), 2)
        _, stats = run_sample(config(walker_count=8, max_sample_edges=150), oracle, pool)
        assert stats.simulated_seconds > 0
        assert_budget_safety(oracle.call_log, "friends", 15, 900.0)

    def test_stop_reasons(self):
        _, _, stats = run_fixture(seed=41, max_sample_edges=50)
        assert stats.stop_reason == "max_sample_edges"
        _, _, stats = run_fixture(seed=41, max_sample_edges=10**9, max_sample_nodes=30)
        assert stats.stop_reason == "max_sample_nodes"
        _, _, stats = run_fixture(seed=41, max_sample_edges=10**9, max_steps=7)
        assert stats.stop_reason == "max_steps"
        assert stats.steps == 7

    def test_simulated_seconds_stop(self):
        n = 60
        rng = random.Random(51)
        edges = reciprocal_er(n, 0.15, rng)
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(52), language_fraction=1.0)
        oracle = build_simulated_oracle(g, profiles, key_count=1, friends_calls_per_window=5)
        pool = SeedPool(sorted(g.nodes), 3)
        _, stats = run_sample(
            config(max_sample_edges=None, max_steps=None, max_simulated_seconds=1800.0),
            oracle,
            pool,
        )
        assert stats.stop_reason == "max_simulated_seconds"
        assert stats.simulated_seconds >= 1800.0

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(10, 50),
        p=st.sampled_from([0.05, 0.1, 0.2]),
        walker_count=st.integers(1, 8),
        key_count=st.integers(1, 4),
        original_rank_degree=st.booleans(),
        language_filter=st.booleans(),
        language_fraction=st.sampled_from([1.0, 0.5]),
        protected_fraction=st.sampled_from([0.0, 0.1]),
        edge_stop=st.booleans(),
        stop_at=st.integers(1, 150),
    )
    def test_round_robin_preserves_invariants(
        self, graph_seed, n, p, walker_count, key_count, original_rank_degree,
        language_filter, language_fraction, protected_fraction, edge_stop, stop_at,
    ):
        edges = reciprocal_er(n, p, random.Random(graph_seed))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(
            n, edges, random.Random(graph_seed + 1),
            language_fraction=language_fraction, protected_fraction=protected_fraction,
        )
        cfg = config(
            walker_count=walker_count,
            original_rank_degree=original_rank_degree,
            language_filter_enabled=language_filter,
            # an edge stop may never trigger once every edge is burned
            max_sample_edges=stop_at if edge_stop else None,
            max_steps=2000 if edge_stop else stop_at,
        )

        def run():
            oracle = build_simulated_oracle(g, profiles, key_count=key_count)
            pool = SeedPool(sorted(g.nodes), graph_seed)
            sample, stats = run_sample(cfg, oracle, pool)
            return oracle, sample, stats

        oracle, sample, stats = run()
        log = stats.walk_log
        assert len(log) == len(set(log))
        burned = set(log)
        for s, t, prov in edge_rows(sample):
            assert g.has_edge(s, t)
            assert ((s, t) in burned) == (prov == WALKED)
        assert_budget_safety(oracle.call_log, "friends", 15, 900.0)
        assert_budget_safety(oracle.call_log, "profiles", 900, 900.0)
        if stats.stop_reason == "max_steps":
            assert stats.steps == cfg.max_steps
        if stats.stop_reason == "max_sample_edges":
            # one step adds at most the walked edge and its reciprocal
            assert stop_at <= sample.num_edges() <= stop_at + 1

        oracle2, sample2, _ = run()
        assert edge_rows(sample2) == edge_rows(sample)
        assert oracle2.call_log == oracle.call_log

    def test_seeds_flagged_in_sample(self, tmp_path):
        _, sample, _ = run_fixture(seed=71, walker_count=3, max_sample_edges=60)
        seeds = seed_node_records(sample, tmp_path / "resume.jsonl")
        assert seeds  # at least the initial walker positions
        assert set(seeds) <= set(sample.graph.nodes)


def record_walk(cfg, oracle, pool, resume=None):
    """Step a Crawl until it stops, as run_sample does, and record from its
    state after each step the account the walker stood on and the edge it
    walked, or None for a jump. Returns the crawl, the positions and the
    edges."""
    crawl = Crawl(cfg, oracle, pool, resume)
    stood, walks = [], []
    while crawl.stop_reason() is None:
        cursor = crawl.cursor
        w = crawl.walker_ids()[cursor]
        crawl.step()
        stood.append(w)
        walks.append(None if crawl.jump_run else (w, crawl.walker_ids()[cursor]))
    return crawl, stood, walks


def without_profiles(profiles, dropped):
    """The table less the accounts in `dropped`, whose friends still list them."""
    return ProfileTable.from_records(
        {name: getattr(profiles[node], name) for name in PROFILE_FIELDS}
        for node in profiles
        if node not in dropped
    )


def profile_lookups(oracle):
    """The ids of the oracle's charged profiles calls, one entry per id per call."""
    return [node for r in oracle.call_log if r.endpoint == oracle.PROFILES for node in r.nodes]


def mixed_world(graph_seed, n, p, reciprocal, **profile_kwargs):
    """A fully reciprocal or a partly reciprocal random graph with its profiles."""
    if reciprocal:
        edges = reciprocal_er(n, p, random.Random(graph_seed))
    else:
        edges = list(random_digraph(n, p, graph_seed).edges())
    g = DirectedGraph.from_edges(edges, nodes=range(n))
    profiles = build_profiles(n, edges, random.Random(graph_seed + 1), **profile_kwargs)
    return g, profiles


def reference_crawl(cfg, budget, profiles, pool):
    """run_sample's walk, told with plain sets and lists over the profile
    records: the sample.csv, growth.csv and stats.json texts and the walk log.

    Walkers step round-robin from pool draws. A walker on an account with an
    unprotected profile reads the first page_size ids of its friend list;
    the first read costs one friends call, and one profiles call per
    profile_batch of the page's ids not asked for before. It walks to the
    asked-for friend with a profile, in the target language when the filter
    is on, over an unburned edge, that has the most followers (less its
    in-degree in the sample under original_rank_degree), the lowest id on a
    tie. A reverse edge in the ground truth joins as symmetric. Any other
    step jumps to a fresh draw. Calls are charged to ReferenceRateLimiters
    on one clock, and each charge is logged as (t, key, endpoint, ids,
    calls_remaining): a friends call asks for the walker's id, and the
    profiles calls for the page's new ids in page order, profile_batch at a
    time."""
    records = {node: profiles[node] for node in profiles}
    original = cfg.original_rank_degree
    clock = SimulatedClock()
    limiters = {"friends": None, "profiles": None}
    if budget.rate_limits_enabled:
        limiters = {
            "friends": ReferenceRateLimiter(
                budget.friends_calls_per_window, budget.friends_window_seconds, budget.key_count
            ),
            "profiles": ReferenceRateLimiter(
                budget.profile_calls_per_window, budget.profile_window_seconds, budget.key_count
            ),
        }
    calls, call_log = Counter(), []

    def charge(endpoint, ids):
        calls[endpoint] += 1
        key = remaining = None
        if limiters[endpoint] is not None:
            key, remaining = limiters[endpoint].charge(clock)
        call_log.append((clock.now, key, endpoint, tuple(ids), remaining))

    walkers = [pool.draw() for _ in range(cfg.walker_count)]
    nodes, walked, symmetric = set(walkers), [], set()
    fetched, asked, not_jumped = set(), set(), set(pool.nodes)
    growth = [(0.0, 0, len(nodes))]
    steps = jump_run = cursor = 0

    def stop():
        edges = len(walked) + len(symmetric)
        for limit, value, reason in (
            (cfg.max_sample_edges, edges, "max_sample_edges"),
            (cfg.max_sample_nodes, len(nodes), "max_sample_nodes"),
            (cfg.max_simulated_seconds, clock.now, "max_simulated_seconds"),
            (cfg.max_steps, steps, "max_steps"),
        ):
            if limit is not None and value >= limit:
                return reason
        return "exhausted" if jump_run >= len(walkers) and not not_jumped else None

    while (reason := stop()) is None:
        w, pick = walkers[cursor], None
        profile = records.get(w)
        if profile is not None and not profile.protected:
            page = profile.friends_recent_first[: budget.page_size]
            if w not in fetched:
                fetched.add(w)
                charge("friends", [w])
                missing = [u for u in page if u not in asked]
                asked.update(missing)
                for start in range(0, len(missing), budget.profile_batch):
                    charge("profiles", missing[start : start + budget.profile_batch])
            burned = set(walked) | (symmetric if original else set())
            into = Counter(t for _, t in [*walked, *symmetric])
            candidates = [
                v for v in page
                if v in asked and v in records and (w, v) not in burned
                and (not cfg.language_filter_enabled or records[v].language == cfg.target_language)
            ]
            score = {v: records[v].follower_count - (into[v] if original else 0) for v in candidates}
            pick = min(candidates, key=lambda v: (-score[v], v), default=None)
        if pick is None:
            pick = pool.draw()
            nodes.add(pick)
            not_jumped.discard(w)
            jump_run += 1
        else:
            symmetric.discard((w, pick))
            walked.append((w, pick))
            nodes.add(pick)
            reverse = (pick, w)
            if (cfg.add_symmetric_edge or original) and w in records[pick].friends_recent_first:
                if reverse not in walked:
                    symmetric.add(reverse)
            jump_run = 0
        walkers[cursor] = pick
        cursor = (cursor + 1) % len(walkers)
        steps += 1
        edges = len(walked) + len(symmetric)
        if edges != growth[-1][1]:
            growth.append((clock.now, edges, len(nodes)))

    provenance = {**{e: SYMMETRIC for e in symmetric}, **{e: WALKED for e in walked}}
    sample_csv = "source,target,provenance\n" + "".join(
        f"{s},{t},{provenance[s, t]}\n" for s, t in sorted(provenance)
    )
    growth_csv = "simulated_seconds,edges,nodes\n" + "".join(f"{t},{e},{n}\n" for t, e, n in growth)
    stats = {
        "steps": steps, "jumps": steps - len(walked), "friends_calls": calls["friends"],
        "profile_calls": calls["profiles"], "simulated_seconds": clock.now,
        "sample_nodes": len(nodes), "sample_edges": len(provenance),
        "walked_edges": len(walked), "symmetric_edges": len(symmetric), "stop_reason": reason,
    }
    stats_json = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    return sample_csv, growth_csv, stats_json, walked, call_log


class TestReferenceCrawl:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 30),
        p=st.sampled_from([0.1, 0.2, 0.4]),
        reciprocal=st.booleans(),
        walker_count=st.integers(1, 5),
        language_filter=st.booleans(),
        language_fraction=st.sampled_from([1.0, 0.5]),
        protected_fraction=st.sampled_from([0.0, 0.2]),
        unprofiled_fraction=st.sampled_from([0.0, 0.2]),
        add_symmetric_edge=st.booleans(),
        original_rank_degree=st.booleans(),
        pool_known=st.booleans(),  # whether the pool holds the ids 0 .. n - 1
        pool_extra=st.lists(st.integers(0, 3), max_size=4),  # n .. n + 3 have no profile
        rate_limits=st.booleans(),
        budget=st.tuples(
            st.integers(1, 3), st.integers(1, 4), st.sampled_from([1.0, 900.0]),
            st.integers(1, 4), st.integers(1, 6), st.integers(1, 3),
        ),
        stops=st.tuples(
            st.integers(0, 250), st.none() | st.integers(0, 60), st.none() | st.integers(1, 30),
            st.none() | st.sampled_from([0.5, 2.0, 1800.0]),
        ),
    )
    def test_run_equals_the_reference_crawl(
        self, graph_seed, n, p, reciprocal, walker_count, language_filter, language_fraction,
        protected_fraction, unprofiled_fraction, add_symmetric_edge, original_rank_degree,
        pool_known, pool_extra, rate_limits, budget, stops, tmp_path_factory,
    ):
        g, profiles = mixed_world(
            graph_seed, n, p, reciprocal,
            language_fraction=language_fraction, protected_fraction=protected_fraction,
        )
        rng = random.Random(graph_seed)
        profiles = without_profiles(
            profiles, {node for node in range(n) if rng.random() < unprofiled_fraction}
        )
        keys, friends_calls, window, profile_calls, page_size, batch = budget
        api = ApiBudget(
            key_count=keys, friends_calls_per_window=friends_calls, friends_window_seconds=window,
            profile_calls_per_window=profile_calls, profile_window_seconds=window,
            page_size=page_size, profile_batch=batch, rate_limits_enabled=rate_limits,
        )
        max_steps, max_edges, max_nodes, max_seconds = stops
        cfg = config(
            walker_count=walker_count, language_filter_enabled=language_filter,
            add_symmetric_edge=add_symmetric_edge, original_rank_degree=original_rank_degree,
            max_steps=max_steps, max_sample_edges=max_edges, max_sample_nodes=max_nodes,
            max_simulated_seconds=max_seconds,
        )
        # a pool may repeat an id, and may hold only ids with no profile
        pool_ids = [*(range(n) if pool_known else ()), *(n + k for k in pool_extra)] or [n, n]
        oracle = SimulatedOracle(profiles, api)
        sample, stats = run_sample(cfg, oracle, SeedPool(pool_ids, graph_seed))
        directory = tmp_path_factory.mktemp("run")
        write_sample_csv(sample, directory / "sample.csv")
        write_growth_csv(stats, directory / "growth.csv")
        write_stats_json(stats, directory / "stats.json")
        *texts, walk_log, call_log = reference_crawl(
            cfg, api, profiles, SeedPool(pool_ids, graph_seed)
        )
        assert stats.walk_log == walk_log
        assert [tuple(r) for r in oracle.call_log] == call_log
        for name, text in zip(("sample.csv", "growth.csv", "stats.json"), texts):
            assert (directory / name).read_text(encoding="utf-8") == text, name


class TestWalkLog:
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 40),
        p=st.sampled_from([0.05, 0.1, 0.3]),
        reciprocal=st.booleans(),
        walker_count=st.integers(1, 6),
        add_symmetric_edge=st.booleans(),
        original_rank_degree=st.booleans(),
        language_fraction=st.sampled_from([1.0, 0.5]),
        protected_fraction=st.sampled_from([0.0, 0.1]),
        steps=st.integers(1, 300),
        split=st.one_of(st.none(), st.integers(0, 300)),
    )
    def test_walk_log_and_jumps_equal_a_per_step_record(
        self, graph_seed, n, p, reciprocal, walker_count, add_symmetric_edge,
        original_rank_degree, language_fraction, protected_fraction, steps, split,
    ):
        g, profiles = mixed_world(
            graph_seed, n, p, reciprocal,
            language_fraction=language_fraction, protected_fraction=protected_fraction,
        )
        first = steps if split is None else min(split, steps)
        cfg = dict(
            walker_count=walker_count, add_symmetric_edge=add_symmetric_edge,
            original_rank_degree=original_rank_degree, max_sample_edges=None,
        )

        def check(stats, record):
            assert stats.steps == len(record)
            assert stats.walk_log == [edge for edge in record if edge is not None]
            assert stats.jumps == record.count(None)

        def run_and_record(max_steps, seed, path=None):
            """run_sample's stats, and record_walk's record, on the same inputs,
            each resumed from its own load of the resume file at `path`."""
            load = (lambda: None) if path is None else (lambda: load_run_state(path))
            oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
            pool = SeedPool(range(n), seed)
            sample, stats = run_sample(config(max_steps=max_steps, **cfg), oracle, pool, resume=load())
            oracle2 = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
            *_, record = record_walk(
                config(max_steps=max_steps, **cfg), oracle2, SeedPool(range(n), seed), load()
            )
            check(stats, record)
            return oracle, pool, sample, stats

        oracle, pool, sample, stats = run_and_record(first, graph_seed)
        if split is None:
            return
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "resume.jsonl"
            save_run_state(path, sample, stats.final_walkers, oracle.clock.now, pool)
            run_and_record(steps - first, 0, path)

    def test_walk_log_shares_the_sample_keys(self):
        """Each walk_log entry is the very tuple the sample keys its edge by,
        unless the edge was in the sample as symmetric before its walk, so
        the log holds no second tuple per walk."""
        n = 40
        edges = reciprocal_er(n, 0.15, random.Random(87))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(88), language_fraction=1.0)
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        cfg = config(walker_count=3, max_steps=200)
        sample, stats = run_sample(cfg, oracle, SeedPool(range(n), 12))
        keys = {k: k for k in sample._provenance}
        walked, shared = set(), 0
        for edge in stats.walk_log:
            # every graph edge is reciprocal, so walking an edge adds its
            # reverse as symmetric
            if edge[::-1] not in walked:
                assert keys[edge] is edge
                shared += 1
            walked.add(edge)
        assert 10 < shared < len(stats.walk_log)


class TestPageCache:
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 40),
        p=st.sampled_from([0.05, 0.1, 0.3]),
        reciprocal=st.booleans(),
        walker_count=st.integers(1, 6),
        rate_limits=st.booleans(),
        key_count=st.integers(1, 3),
        language_filter=st.booleans(),
        language_fraction=st.sampled_from([1.0, 0.5]),
        protected_fraction=st.sampled_from([0.0, 0.2]),
        unprofiled_fraction=st.sampled_from([0.0, 0.2]),
        original_rank_degree=st.booleans(),
        steps=st.integers(0, 300),
    )
    def test_run_walks_as_an_uncached_step_loop(
        self, graph_seed, n, p, reciprocal, walker_count, rate_limits, key_count,
        language_filter, language_fraction, protected_fraction, unprofiled_fraction,
        original_rank_degree, steps,
    ):
        """run_sample fetches each account's friends page once and walks as a
        Crawl whose page_length is reset before every step, which fetches one
        page on every step that is not refused. Neither asks for a friend's
        profile twice, even when the lookup found none."""
        g, profiles = mixed_world(
            graph_seed, n, p, reciprocal,
            language_fraction=language_fraction, protected_fraction=protected_fraction,
        )
        rng = random.Random(graph_seed)
        profiles = without_profiles(
            profiles, {node for node in range(n) if rng.random() < unprofiled_fraction}
        )
        pool_ids = range(n + 2)  # n and n + 1 are unknown ids
        cfg = config(
            walker_count=walker_count, language_filter_enabled=language_filter,
            original_rank_degree=original_rank_degree, max_sample_edges=None, max_steps=steps,
        )

        def served(node):  # get_friends answers, and charges
            return node in profiles and not profiles[node].protected

        def new_oracle():
            return build_simulated_oracle(
                g, profiles, rate_limits_enabled=rate_limits, key_count=key_count
            )

        oracle = new_oracle()
        sample, stats = run_sample(cfg, oracle, SeedPool(pool_ids, graph_seed))
        _, stood, _ = record_walk(cfg, new_oracle(), SeedPool(pool_ids, graph_seed))
        assert stats.steps == steps or stats.stop_reason == "exhausted"

        loop_oracle = new_oracle()
        crawl, served_steps = Crawl(cfg, loop_oracle, SeedPool(pool_ids, graph_seed)), 0
        for _ in range(stats.steps):
            served_steps += served(crawl.walker_ids()[crawl.cursor])
            crawl.page_length = array("q", [-1]) * len(crawl.page_length)
            crawl.step()
        loop_sample = crawl.sample

        assert stats.walk_log == crawl.stats.walk_log
        assert list(loop_sample._provenance.values()).count(0) == len(stats.walk_log)
        with tempfile.TemporaryDirectory() as directory:
            paths = [Path(directory) / name for name in ("run.csv", "loop.csv")]
            write_sample_csv(sample, paths[0])
            write_sample_csv(loop_sample, paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()
        assert stats.jumps == stats.steps - len(crawl.stats.walk_log)
        assert stats.profile_calls == loop_oracle.calls_by_endpoint[oracle.PROFILES]
        assert loop_oracle.calls_by_endpoint[oracle.FRIENDS] == served_steps
        fetched = [r.nodes[0] for r in oracle.call_log if r.endpoint == oracle.FRIENDS]
        assert len(fetched) == len(set(fetched))
        assert stats.friends_calls == len({node for node in stood if served(node)})
        assert len(oracle.call_log) == stats.friends_calls + stats.profile_calls
        for checked in (oracle, loop_oracle):
            assert_budget_safety(checked.call_log, oracle.FRIENDS, 15, 900.0)
            assert_budget_safety(checked.call_log, oracle.PROFILES, 900, 900.0)
            asked = profile_lookups(checked)
            assert len(asked) == len(set(asked))


class TestCrawlCache:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(4, 30),
        p=st.sampled_from([0.1, 0.3, 0.5]),
        reciprocal=st.booleans(),
        walker_count=st.integers(1, 5),
        language_filter=st.booleans(),
        protected_fraction=st.sampled_from([0.1, 0.3]),
        unprofiled_fraction=st.sampled_from([0.2, 0.4]),
        original_rank_degree=st.booleans(),
        steps=st.integers(1, 200),
    )
    def test_cache_holds_only_what_was_charged(
        self, graph_seed, n, p, reciprocal, walker_count, language_filter, protected_fraction,
        unprofiled_fraction, original_rank_degree, steps,
    ):
        """After every step of a crawl: the page the step read, the first
        page_length[row] ids of the account's friend row, is the one the
        account's one charged get_friends returned, revisits included; the
        crawl records exactly the charged profile lookups; and the step picks
        the best friend whose lookup was charged, by the profiles they were
        served, as select_target does on a crawl that records only some of
        them. An id with no profile is looked up once."""
        g, profiles = mixed_world(
            graph_seed, n, p, reciprocal,
            language_fraction=0.5, protected_fraction=protected_fraction,
        )
        rng = random.Random(graph_seed)
        profiles = without_profiles(
            profiles, {node for node in range(n) if rng.random() < unprofiled_fraction}
        )
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        cfg = config(
            walker_count=walker_count, language_filter_enabled=language_filter,
            original_rank_degree=original_rank_degree, max_sample_edges=None, max_steps=steps,
        )
        served, charged = {}, []  # account -> its charged page; ids of charged lookups
        real_friends, real_profiles = oracle.get_friends, oracle.get_profiles

        def get_friends(node):
            page = real_friends(node)
            assert node not in served
            served[node] = page.friends
            return page

        def get_profiles(nodes):
            charged.extend(nodes)
            return real_profiles(nodes)

        def expected_pick(w, candidates, rows):
            """The pick among `candidates` on a sample of the edges `rows`."""
            walked = {(s, t) for s, t, prov in rows if prov == WALKED}
            burned = {(s, t) for s, t, _ in rows} if original_rank_degree else walked
            into = Counter(t for _, t, _ in rows)
            eligible = [
                v for v in candidates
                if v in profiles and (w, v) not in burned
                and (not language_filter or profiles[v].language == "de")
            ]
            score = {
                v: profiles[v].follower_count - (into[v] if original_rank_degree else 0)
                for v in eligible
            }
            return min(eligible, key=lambda v: (-score[v], v)) if eligible else None

        oracle.get_friends, oracle.get_profiles = get_friends, get_profiles
        crawl = Crawl(cfg, oracle, SeedPool(range(n + 2), graph_seed))
        sample = crawl.sample
        while crawl.stop_reason() is None:
            cursor = crawl.cursor
            w = crawl.walker_ids()[cursor]
            before = edge_rows(sample)
            crawl.step()
            pick = None if crawl.jump_run else crawl.walker_ids()[cursor]
            asked = [crawl.ids[r] for r, flag in enumerate(crawl.looked_up) if flag]
            assert len(asked) == len(set(asked)) and set(asked) == set(charged)
            if w not in served:  # refused, so no page: a jump
                assert pick is None
                continue
            row = rows_of(profiles, [w])[0]
            page = profiles.friends(row)[: crawl.page_length[row]].tolist()
            assert page == list(served[w])
            assert pick == expected_pick(w, [v for v in page if v in charged], before)
            # a crawl that records only some of the charged lookups ranks only those
            some = [u for u in charged if rng.random() < 0.5]
            partial = looked_up(profiles, cfg, some)
            assert select(w, page, partial, sample, cfg) == expected_pick(
                w, [v for v in page if v in some], edge_rows(sample)
            )
        stats = crawl.finish()
        assert stats.steps == steps or stats.stop_reason == "exhausted"
        assert len(charged) == len(set(charged))
        assert stats.friends_calls == len(served)


class TestExhausted:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 12),
        p=st.sampled_from([0.1, 0.3, 0.6]),
        reciprocal=st.booleans(),
        walker_count=st.integers(1, 5),
        original_rank_degree=st.booleans(),
        language_filter=st.booleans(),
        language_fraction=st.sampled_from([1.0, 0.5]),
        protected_fraction=st.sampled_from([0.0, 0.2]),
        pool=st.lists(st.integers(0, 14), min_size=1, max_size=20),  # 12-14 are unknown ids
    )
    def test_exhausted_run_burned_every_eligible_pool_edge(
        self, graph_seed, n, p, reciprocal, walker_count, original_rank_degree,
        language_filter, language_fraction, protected_fraction, pool,
    ):
        g, profiles = mixed_world(
            graph_seed, n, p, reciprocal,
            language_fraction=language_fraction, protected_fraction=protected_fraction,
        )
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        cfg = config(
            walker_count=walker_count, original_rank_degree=original_rank_degree,
            language_filter_enabled=language_filter, max_sample_edges=None, max_steps=10**5,
        )
        sample, stats = run_sample(cfg, oracle, SeedPool(pool, graph_seed))
        assert stats.stop_reason == "exhausted"
        # the burn rule: walked edges, and under the switch every sample edge
        burned = {
            (s, t)
            for s, t, prov in edge_rows(sample)
            if prov == WALKED or original_rank_degree
        }

        def unburned_eligible_edges(u):
            profile = profiles.get(u)
            if profile is None or profile.protected:
                return []
            return [
                (u, v)
                for v in profile.friends_recent_first
                if v in profiles
                and (not language_filter or profiles[v].language == "de")
                and (u, v) not in burned
            ]

        # no pool node, and so no walker after a jump, can walk again
        for u in set(pool) | set(stats.final_walkers):
            assert unburned_eligible_edges(u) == []


class TestResume:
    def test_interrupted_run_continues_without_rewalking(self, tmp_path):
        n = 100
        rng = random.Random(81)
        edges = reciprocal_er(n, 0.1, rng)
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(82), language_fraction=1.0)

        oracle1 = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        pool1 = SeedPool(sorted(g.nodes), 9)
        sample1, stats1 = run_sample(
            config(walker_count=3, max_sample_edges=80), oracle1, pool1
        )
        state_path = tmp_path / "resume.jsonl"
        save_run_state(state_path, sample1, stats1.final_walkers, oracle1.clock.now, pool1)

        oracle2 = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        pool2 = SeedPool(sorted(g.nodes), 0)  # state is overwritten by the resume file
        resume = load_run_state(state_path)
        walked = [(s, t) for s, t, prov in edge_rows(resume.sample) if prov == WALKED]
        assert sorted(walked) == sorted(stats1.walk_log)
        sample2, stats2 = run_sample(
            config(walker_count=3, max_sample_edges=160),
            oracle2,
            pool2,
            resume=resume,
        )
        assert sample2.num_edges() >= 160
        # edges walked before the interruption are never walked again
        assert not set(stats2.walk_log) & set(stats1.walk_log)
        for s, t, _prov in edge_rows(sample2):
            assert g.has_edge(s, t)

    def test_walked_edge_records_stay_burned_without_burned_records(self, tmp_path):
        """The walked `edge` records are the burn record: a resume file holds no
        `burned` lines, yet it burns every edge the first run walked."""
        n = 40
        edges = reciprocal_er(n, 0.15, random.Random(83))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(84), language_fraction=1.0)
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        pool = SeedPool(range(n), 10)
        sample, first = run_sample(config(walker_count=3, max_steps=30), oracle, pool)
        path = tmp_path / "resume.jsonl"
        save_run_state(path, sample, first.final_walkers, oracle.clock.now, pool)
        assert '"burned"' not in path.read_text()
        resume = load_run_state(path)
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        _, resumed = run_sample(
            config(walker_count=3, max_steps=300), oracle, SeedPool(range(n), 0), resume=resume
        )
        assert len(first.walk_log) > 10 and len(resumed.walk_log) > 10
        assert not set(resumed.walk_log) & set(first.walk_log)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 40),
        p=st.sampled_from([0.05, 0.1, 0.3]),
        reciprocal=st.booleans(),
        walker_count=st.integers(1, 6),
        original_rank_degree=st.booleans(),
        language_fraction=st.sampled_from([1.0, 0.5]),
        protected_fraction=st.sampled_from([0.0, 0.1]),
        rate_limits=st.booleans(),
        key_count=st.integers(1, 3),
        steps=st.integers(0, 300),
        split=st.integers(0, 300),
    )
    def test_split_run_walks_as_one_run(
        self, graph_seed, n, p, reciprocal, walker_count, original_rank_degree,
        language_fraction, protected_fraction, rate_limits, key_count, steps, split,
    ):
        """k steps, a resume file, then steps - k more walk the edges of one
        steps-long run, in its order, for any k: the resumed run starts with
        the walker after the one that stepped last. Each sample round-trips:
        the resume file's `edge` records are the first run's rows, and
        sample.csv reads back as the sample's own graph and codes. With rate
        limits on, the two call logs together keep every key's budget on
        both endpoints."""
        g, profiles = mixed_world(
            graph_seed, n, p, reciprocal,
            language_fraction=language_fraction, protected_fraction=protected_fraction,
        )
        first = min(split, steps)
        cfg = dict(
            walker_count=walker_count, original_rank_degree=original_rank_degree,
            max_sample_edges=None,
        )

        def run(max_steps, pool, resume=None):
            oracle = build_simulated_oracle(
                g, profiles, rate_limits_enabled=rate_limits, key_count=key_count
            )
            cfg_steps = config(max_steps=max_steps, **cfg)
            sample, stats = run_sample(cfg_steps, oracle, pool, resume=resume)
            return oracle, sample, stats

        _, whole, whole_stats = run(steps, SeedPool(range(n), graph_seed))
        pool = SeedPool(range(n), graph_seed)
        oracle, sample, stats = run(first, pool)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "resume.jsonl"
            save_run_state(
                path, sample, stats.final_walkers, oracle.clock.now, pool, oracle.window_charges()
            )
            with open(path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            assert [
                (r["s"], r["t"], r["p"]) for r in records if r["type"] == "edge"
            ] == edge_rows(sample)
            resume = load_run_state(path)
            resumed_oracle, resumed, resumed_stats = run(
                steps - first, SeedPool(range(n), 0), resume
            )
            for sampled in (sample, resumed, whole):
                write_sample_csv(sampled, Path(directory) / "sample.csv")
                read_back = read_sample_csv(Path(directory) / "sample.csv")
                assert_same_sample(*read_back, sampled.graph, sampled.codes)
        assert stats.walk_log + resumed_stats.walk_log == whole_stats.walk_log
        assert edge_rows(resumed) == edge_rows(whole)
        assert_same_sample(resumed.graph, resumed.codes, whole.graph, whole.codes)
        calls = [*oracle.call_log, *resumed_oracle.call_log]
        budget = resumed_oracle.budget
        assert_budget_safety(
            calls, "friends", budget.friends_calls_per_window, budget.friends_window_seconds
        )
        assert_budget_safety(
            calls, "profiles", budget.profile_calls_per_window, budget.profile_window_seconds
        )

    def test_resumed_run_walks_a_saved_symmetric_edge(self, tmp_path):
        """A resume file's symmetric edge (2, 1) is not burned: the resumed
        run walks it, logs it at its step and writes it as walked."""
        _, oracle = build_oracle([(1, 2), (2, 1)])
        pool = SeedPool([1], 0)
        sample, first = run_sample(config(max_steps=1), oracle, pool)
        assert first.walk_log == [(1, 2)] and edge_rows(sample)[1] == (2, 1, SYMMETRIC)
        path = tmp_path / "resume.jsonl"
        save_run_state(path, sample, first.final_walkers, oracle.clock.now, pool)
        _, oracle = build_oracle([(1, 2), (2, 1)])
        resumed, stats = run_sample(
            config(max_steps=2), oracle, SeedPool([1], 0), resume=load_run_state(path)
        )
        assert stats.walk_log == [(2, 1)]
        assert (stats.walked_edges, stats.symmetric_edges) == (2, 0)
        write_sample_csv(resumed, tmp_path / "sample.csv")
        assert (tmp_path / "sample.csv").read_text().splitlines()[1:] == [
            "1,2,walked", "2,1,walked"
        ]

    def test_walker_records_may_carry_extra_fields(self, tmp_path):
        # resume files written before walker records lost "hops" still load
        _, oracle = build_oracle([(1, 2), (2, 3)])
        pool = SeedPool([1, 2, 3], 0)
        sample, stats = run_sample(config(walker_count=2, max_steps=3), oracle, pool)
        path = tmp_path / "resume.jsonl"
        save_run_state(path, sample, stats.final_walkers, oracle.clock.now, pool)
        lines = [
            line.replace("}", ', "hops": 4}') if '"walker"' in line else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        assert load_run_state(path).walkers == stats.final_walkers

        # a file in the older format, with `burned` records, walker ids and
        # spaced JSON, loads as the same state and resumes the same walk; that
        # format resumed at walker 0, so the first run stops after whole rounds
        n = 40
        edges = reciprocal_er(n, 0.15, random.Random(85))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(86), language_fraction=1.0)

        def run(max_steps, pool, resume=None):
            oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
            cfg = config(walker_count=3, max_steps=max_steps)
            return oracle, *run_sample(cfg, oracle, pool, resume=resume)

        pool = SeedPool(range(n), 11)
        oracle, sample, first = run(30, pool)
        assert 1 in sample._provenance.values() and len(first.walk_log) > 10
        save_run_state(path, sample, first.final_walkers, oracle.clock.now, pool)
        old_path = tmp_path / "old_resume.jsonl"
        old_path.write_text(
            older_format(sample, first.walk_log, first.final_walkers, oracle.clock.now, pool)
        )
        resume = load_run_state(old_path)
        assert resume == load_run_state(path)
        assert resume.walkers == first.final_walkers
        _, _, resumed = run(70, SeedPool(range(n), 0), resume)
        _, _, whole = run(100, SeedPool(range(n), 11))
        assert first.walk_log + resumed.walk_log == whole.walk_log

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        graph_seed=st.integers(0, 10**6),
        n=st.integers(2, 40),
        p=st.sampled_from([0.05, 0.1, 0.3]),
        walker_count=st.integers(1, 6),
        key_count=st.integers(1, 3),
        steps=st.integers(0, 200),
        case=st.sampled_from(["charges", "no-charges", "symmetric"]),
    )
    def test_saved_state_loads_as_the_run_state(
        self, graph_seed, n, p, walker_count, key_count, steps, case
    ):
        """A resume file saved after any number of steps loads as the run's
        own RunState: its clock, pool state, walkers, charges and sample, each
        edge with its code and each node with its seed flag, though the file
        lists a seed's edges before its seed_node record. The cases are a
        run with rate limits on and charges that still count, one with rate
        limits off and so no charges, and a reciprocal world's run whose
        sample holds symmetric edges."""
        g, profiles = mixed_world(graph_seed, n, p, reciprocal=case == "symmetric")
        oracle = build_simulated_oracle(
            g, profiles, rate_limits_enabled=case == "charges", key_count=key_count
        )
        pool = SeedPool(range(n), graph_seed)
        cfg = config(walker_count=walker_count, max_steps=steps, max_sample_edges=None)
        sample, stats = run_sample(cfg, oracle, pool)
        charges = oracle.window_charges()
        if case == "charges":
            assume(charges)
        else:
            assert not charges  # rate limits off
        if case == "symmetric":
            assume(1 in sample._provenance.values())
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "resume.jsonl"
            save_run_state(path, sample, stats.final_walkers, oracle.clock.now, pool, charges)
            loaded = load_run_state(path)
        assert loaded == RunState(
            oracle.clock.now, pool.getstate(), sample, stats.final_walkers, charges
        )

    def test_one_run_state_starts_one_run(self, tmp_path):
        """A resumed run continues the loaded sample in place, so the RunState
        starts one run: a second run from it raises ValueError before it
        touches the oracle or the pool."""
        _, oracle = build_oracle([(1, 2), (2, 3), (3, 1)])
        pool = SeedPool([1, 2, 3], 0)
        sample, stats = run_sample(config(max_steps=2), oracle, pool)
        path = tmp_path / "resume.jsonl"
        save_run_state(path, sample, stats.final_walkers, oracle.clock.now, pool)
        state = load_run_state(path)
        loaded = state.sample
        _, oracle = build_oracle([(1, 2), (2, 3), (3, 1)])
        resumed, _ = run_sample(config(max_steps=1), oracle, SeedPool([1, 2, 3], 0), resume=state)
        assert resumed is loaded and state.sample is None
        _, oracle = build_oracle([(1, 2), (2, 3), (3, 1)])
        pool = SeedPool([1, 2, 3], 5)
        pool_state = pool.getstate()
        with pytest.raises(ValueError, match="load the resume file again"):
            run_sample(config(max_steps=1), oracle, pool, resume=state)
        assert oracle.clock.now == 0.0 and pool.getstate() == pool_state

    @pytest.mark.memory
    def test_resumed_crawl_holds_its_sample_once(self, tmp_path):
        """A loaded resume file is the sample the resumed Crawl continues, so
        with the RunState still referenced, as cmd_sample holds it, the state
        and the Crawl keep ~190 B a resumed edge here, the sample's dicts and
        the Crawl's per-row columns; with an edge list and a set of the
        file's edges beside a sample rebuilt from them, they kept ~330 B."""
        n = 2000
        edges = preferential_attachment(n, 5, random.Random(1))
        g = DirectedGraph.from_edges(edges, nodes=range(n))
        profiles = build_profiles(n, edges, random.Random(2), language_fraction=1.0)
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        pool = SeedPool(range(n), 3)
        sample, stats = run_sample(config(walker_count=20, max_sample_edges=3000), oracle, pool)
        path = tmp_path / "resume.jsonl"
        save_run_state(path, sample, stats.final_walkers, oracle.clock.now, pool)
        resumed_edges = sample.num_edges()
        del sample, stats
        oracle = build_simulated_oracle(g, profiles, rate_limits_enabled=False)
        pool = SeedPool(range(n), 0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = load_run_state(path)
            crawl = Crawl(config(walker_count=20, max_sample_edges=6000), oracle, pool, state)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert crawl.sample.num_edges() == resumed_edges == 3000
        assert kept / resumed_edges <= 256


def older_format(sample, walk_log, walkers, clock_now, pool):
    """A resume file as written before walkers were saved in step order: a
    `burned` record per walked edge in walk order, then every `edge`, seed and
    walker record, each walker with its `id`, all but `meta` in spaced JSON."""
    meta = {"type": "meta", "clock_now": clock_now, "seed_pool_state": pool.getstate()}
    records = [json.dumps(meta, separators=(",", ":"))]
    records += [json.dumps({"type": "burned", "s": s, "t": t}) for s, t in walk_log]
    records += [
        json.dumps({"type": "edge", "s": s, "t": t, "p": prov})
        for s, t, prov in edge_rows(sample)
    ]
    seeds = sorted(node for node, seed in sample._nodes.items() if seed)
    records += [json.dumps({"type": "seed_node", "n": node}) for node in seeds]
    records += [
        json.dumps({"type": "walker", "id": i, "current": w}) for i, w in enumerate(walkers)
    ]
    return "".join(record + "\n" for record in records)
