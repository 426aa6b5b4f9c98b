import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import random
import shlex
from pathlib import Path

import pytest

from rankwalk import cli
from rankwalk.cli import RUN_CONFIG_FIELDS, build_parser, main, read_run_config
from rankwalk.communities import community_graph, label_propagation, load_assignment
from rankwalk.evaluation import activity, coverage_report
from rankwalk.generate import build_profiles, generate_network
from rankwalk.graph import k_core, pagerank, read_edge_list, read_profiles
from rankwalk.keywords import Doc, keywords_by_community, window_docs, write_docs_jsonl
from rankwalk.oracle import ApiBudget, CallRecord, assert_budget_safety
from rankwalk.reference import rank_degree
from rankwalk.sampler import SamplerConfig, read_sample_csv


def run(argv):
    return main(argv)


# `--print-config` with no config file and no `--seed`: every field's default.
DEFAULT_CONFIG_TEXT = """\
{
  "add_symmetric_edge": true,
  "filter_seed_pool_language": false,
  "friends_calls_per_window": 15,
  "friends_window_seconds": 900.0,
  "key_count": 12,
  "language_filter_enabled": true,
  "max_sample_edges": null,
  "max_sample_nodes": null,
  "max_simulated_seconds": null,
  "max_steps": null,
  "page_size": 5000,
  "profile_batch": 100,
  "profile_calls_per_window": 900,
  "profile_window_seconds": 900.0,
  "rate_limits_enabled": true,
  "rng_seed": 0,
  "target_language": "de",
  "walker_count": 200
}
"""


def printed_config(capsys, *argv):
    capsys.readouterr()
    assert run([*argv, "--print-config"]) == 0
    return capsys.readouterr().out


class TestConfig:
    def test_print_config_is_valid_json(self, capsys):
        assert run(["--print-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["walker_count"] == 200
        assert config["friends_calls_per_window"] == 15

    def test_print_config_prints_every_default(self, capsys):
        assert printed_config(capsys) == DEFAULT_CONFIG_TEXT

    def test_config_file_round_trip(self, tmp_path, capsys):
        config = {**json.loads(DEFAULT_CONFIG_TEXT), "walker_count": 7, "rng_seed": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert read_run_config(path) == config
        loaded = json.loads(printed_config(capsys, "--config", str(path)))
        assert loaded["walker_count"] == 7
        assert loaded["rng_seed"] == 3

    def test_type_table_accepts_every_field_as_written(self, tmp_path, capsys):
        declared = [
            f.name
            for cls in (SamplerConfig, ApiBudget)
            for f in dataclasses.fields(cls)
            if f.name != "original_rank_degree"
        ]
        assert list(RUN_CONFIG_FIELDS) == ["filter_seed_pool_language", *declared]
        stops = {
            "max_sample_nodes": 1, "max_sample_edges": 2, "max_simulated_seconds": 3.5,
            "max_steps": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(printed_config(capsys))
        assert printed_config(capsys, "--config", str(path)) == DEFAULT_CONFIG_TEXT
        path.write_text(json.dumps({**json.loads(DEFAULT_CONFIG_TEXT), **stops}))
        assert json.loads(printed_config(capsys, "--config", str(path))) == {
            **json.loads(DEFAULT_CONFIG_TEXT), **stops
        }

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"walker_countt": 7}')
        with pytest.raises(ValueError, match="walker_countt"):
            read_run_config(path)


class TestGenerateCommand:
    def test_emits_parseable_files(self, tmp_path):
        rc = run(
            [
                "--out-dir", str(tmp_path), "--seed", "1",
                "generate", "--model", "preferential-attachment", "--nodes", "200",
            ]
        )
        assert rc == 0
        graph = read_edge_list(tmp_path / "edges.csv")
        profiles = read_profiles(tmp_path / "profiles.jsonl")
        assert graph.num_nodes() == 200
        assert set(profiles) == graph.nodes

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--protected-fraction", "1.5", "protected_fraction must lie in [0, 1], got 1.5"),
            ("--language-fraction", "-3", "language_fraction must lie in [0, 1], got -3.0"),
            ("--follower-noise", "-0.1", "follower_noise must be >= 0, got -0.1"),
            ("--follower-noise", "nan", "follower_noise must be >= 0, got nan"),
        ],
    )
    def test_setting_out_of_range_gives_exit_one(self, tmp_path, capsys, flag, value, message):
        """`message` is generate_network's; the line names the flag in place of
        the parameter."""
        parameter, _, reason = message.partition(" ")
        assert flag == "--" + parameter.replace("_", "-")
        rc = run(
            [
                "--out-dir", str(tmp_path),
                "generate", "--model", "reciprocal-er", "--nodes", "10", flag, value,
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag} {reason}\n"
        assert not any(tmp_path.iterdir())


class TestPipelineCommands:
    @pytest.fixture
    def fixture_dir(self, tmp_path):
        assert run(
            [
                "--out-dir", str(tmp_path), "--seed", "2",
                "generate", "--model", "reciprocal-er", "--nodes", "80", "--p", "0.1",
            ]
        ) == 0
        return tmp_path

    def test_sample_evaluate_kcore_pagerank(self, fixture_dir):
        d = str(fixture_dir)
        rc = run(
            [
                "--out-dir", d, "--seed", "3",
                "sample",
                "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "120",
                "--walker-count", "4",
                "--resume-to", "resume.jsonl",
            ]
        )
        assert rc == 0
        sample_graph, codes = read_sample_csv(fixture_dir / "sample.csv")
        assert sample_graph.num_edges() >= 120
        # one code an edge, each that of `walked` or `symmetric`
        assert len(codes) == sample_graph.num_edges() and set(codes.tolist()) <= {0, 1}
        stats = json.loads((fixture_dir / "stats.json").read_text())
        assert stats["sample_edges"] == sample_graph.num_edges()
        growth_lines = (fixture_dir / "growth.csv").read_text().strip().split("\n")
        assert growth_lines[0] == "simulated_seconds,edges,nodes"
        assert (fixture_dir / "resume.jsonl").exists()
        assert (fixture_dir / "call_log.jsonl").exists()

        rc = run(
            [
                "--out-dir", d, "--seed", "4",
                "evaluate",
                "--sample", f"{d}/sample.csv",
                "--profiles", f"{d}/profiles.jsonl",
                "--test-size", "40",
            ]
        )
        assert rc == 0
        report = (fixture_dir / "coverage_report.csv").read_text().strip().split("\n")
        assert report[0] == "statistic,friend_count,pct_in_influencer,pct_in_baseline"
        assert len(report) == 9

        rc = run(
            ["--out-dir", d, "kcore", "--graph", f"{d}/sample.csv", "--k", "2",
             "--min-in-degree", "1"]
        )
        assert rc == 0
        read_edge_list(fixture_dir / "kcore.csv")

        rc = run(["--out-dir", d, "pagerank", "--graph", f"{d}/edges.csv"])
        assert rc == 0
        lines = (fixture_dir / "pagerank.csv").read_text().strip().split("\n")
        assert lines[0] == "node,score"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_reference_command(self, fixture_dir):
        d = str(fixture_dir)
        rc = run(
            [
                "--out-dir", d, "--seed", "5",
                "reference", "--graph", f"{d}/edges.csv", "--sample-size", "40",
            ]
        )
        assert rc == 0
        graph, _ = read_sample_csv(fixture_dir / "reference_sample.csv")
        assert graph.num_edges() >= 40

    def test_communities_and_keywords(self, fixture_dir):
        d = str(fixture_dir)
        rc = run(
            [
                "--out-dir", d, "--seed", "6",
                "communities", "--graph", f"{d}/edges.csv", "--min-size", "2",
            ]
        )
        assert rc == 0
        assignment = load_assignment(fixture_dir / "assignment.csv")
        assert assignment
        sizes_lines = (fixture_dir / "community_sizes.csv").read_text().strip().split("\n")
        assert sizes_lines[0] == "community,size"

        docs = [
            Doc(node, 100.0 + node, f"text about thing{community} #tag{community}")
            for node, community in assignment.items()
        ]
        write_docs_jsonl(docs, fixture_dir / "docs.jsonl")
        stop_path = fixture_dir / "stopwords.txt"
        stop_path.write_text("about\ntext\n")
        rc = run(
            [
                "--out-dir", d,
                "keywords",
                "--docs", f"{d}/docs.jsonl",
                "--assignment", f"{d}/assignment.csv",
                "--stopwords", str(stop_path),
                "--min-size", "2",
            ]
        )
        assert rc == 0
        lines = (fixture_dir / "keywords.csv").read_text().strip().split("\n")
        assert lines[0] == "community,rank,token,chi2,user_fraction"


class TestConfigDrivenRuns:
    def test_seed_pool_language_filter_from_config(self, tmp_path):
        d = str(tmp_path)
        assert run(
            [
                "--out-dir", d, "--seed", "30",
                "generate", "--model", "reciprocal-er", "--nodes", "60", "--p", "0.15",
                "--language-fraction", "0.5",
            ]
        ) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "filter_seed_pool_language": True,
                    "max_sample_edges": 40,
                    "max_steps": 50000,
                    "walker_count": 3,
                }
            )
        )
        assert run(
            [
                "--config", str(config_path), "--out-dir", d, "--seed", "31",
                "sample",
                "--profiles", f"{d}/profiles.jsonl",
            ]
        ) == 0
        sample_graph, _ = read_sample_csv(tmp_path / "sample.csv")
        profiles = read_profiles(tmp_path / "profiles.jsonl")
        for node in sample_graph.nodes:
            assert profiles[node].language == "de"

    def test_resume_round_trip_through_cli(self, tmp_path):
        d = str(tmp_path)
        assert run(
            [
                "--out-dir", d, "--seed", "32",
                "generate", "--model", "reciprocal-er", "--nodes", "70", "--p", "0.12",
            ]
        ) == 0
        assert run(
            [
                "--out-dir", d, "--seed", "33",
                "sample",
                "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "60", "--walker-count", "3",
                "--resume-to", "resume.jsonl",
            ]
        ) == 0
        first, _ = read_sample_csv(tmp_path / "sample.csv")
        assert run(
            [
                "--out-dir", d, "--seed", "33",
                "sample",
                "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "140", "--walker-count", "3",
                "--resume-from", f"{d}/resume.jsonl",
                "--out-sample", "sample2.csv",
            ]
        ) == 0
        combined, _ = read_sample_csv(tmp_path / "sample2.csv")
        assert combined.num_edges() >= 140
        for s, t in first.edges():
            assert combined.has_edge(s, t)

    @pytest.mark.parametrize("first_steps", [18, 20, 23, 26, 30, 37])
    def test_split_crawl_keeps_the_rate_budget(self, tmp_path, first_steps):
        """One key, five walkers: a crawl split by a resume file keeps each
        key's budget on both endpoints over its two call logs together."""
        d = str(tmp_path)
        (tmp_path / "config.json").write_text('{"key_count": 1, "walker_count": 5}')
        assert run([
            "--out-dir", d, "--seed", "3", "generate", "--model", "preferential-attachment",
            "--nodes", "3000", "--m", "3",
        ]) == 0
        sample = ["--out-dir", d, "--config", f"{d}/config.json", "sample",
                  "--profiles", f"{d}/profiles.jsonl", "--no-language-filter"]
        assert run([
            *sample, "--max-steps", str(first_steps), "--resume-to", "state.jsonl",
            "--out-call-log", "calls_first.jsonl",
        ]) == 0
        resumed = [*sample, "--max-steps", str(first_steps), "--resume-from", f"{d}/state.jsonl"]
        assert run(resumed) == 0
        calls = [
            CallRecord(r["t"], r["key"], r["endpoint"], tuple(r["nodes"]), r["calls_remaining"])
            for name in ("calls_first.jsonl", "call_log.jsonl")
            for r in map(json.loads, (tmp_path / name).read_text().splitlines())
        ]
        budget = ApiBudget(key_count=1)
        assert_budget_safety(
            calls, "friends", budget.friends_calls_per_window, budget.friends_window_seconds
        )
        assert_budget_safety(
            calls, "profiles", budget.profile_calls_per_window, budget.profile_window_seconds
        )


# Commands to run on GOOD_FILES, the two-account world defined further down.
EVALUATE = ["evaluate", "--sample", "{d}/sample.csv", "--profiles", "{d}/profiles.jsonl"]
REFERENCE = ["reference", "--graph", "{d}/edges.csv", "--sample-size", "10"]


class TestErrors:
    def test_missing_file_gives_exit_one(self, tmp_path, capsys):
        rc = run(
            [
                "--out-dir", str(tmp_path),
                "kcore", "--graph", str(tmp_path / "nope.csv"), "--k", "3",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def seed_pool_run(self, tmp_path, pool_text, capsys):
        d = str(tmp_path)
        assert run(
            [
                "--out-dir", d, "--seed", "9",
                "generate", "--model", "reciprocal-er", "--nodes", "30", "--p", "0.2",
            ]
        ) == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"filter_seed_pool_language": True, "max_sample_edges": 20})
        )
        pool_path = tmp_path / "pool.txt"
        pool_path.write_text(pool_text)
        capsys.readouterr()
        rc = run(
            [
                "--config", str(config_path), "--out-dir", d,
                "sample",
                "--profiles", f"{d}/profiles.jsonl",
                "--seed-pool", str(pool_path), "--walker-count", "2",
            ]
        )
        return rc, capsys.readouterr().err

    def test_seed_pool_id_without_profile_gives_exit_one(self, tmp_path, capsys):
        rc, err = self.seed_pool_run(tmp_path, "1\n99999\n2\n", capsys)
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "99999" in err

    def test_non_integer_seed_pool_line_gives_exit_one(self, tmp_path, capsys):
        rc, err = self.seed_pool_run(tmp_path, "1\n\n2\nabc\n", capsys)
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "pool.txt" in err and "line 4" in err and "'abc'" in err

    def reference_run(self, tmp_path, extra, capsys):
        d = str(tmp_path)
        assert run(
            [
                "--out-dir", d, "--seed", "9",
                "generate", "--model", "reciprocal-er", "--nodes", "30", "--p", "0.2",
            ]
        ) == 0
        capsys.readouterr()
        rc = run(
            ["--out-dir", d, "reference", "--graph", f"{d}/edges.csv", "--sample-size", "10"]
            + extra
        )
        return rc, capsys.readouterr().err

    def test_non_integer_reference_seed_gives_exit_one(self, tmp_path, capsys):
        rc, err = self.reference_run(tmp_path, ["--seeds", "a,b"], capsys)
        assert rc == 1
        assert err == "error: --seeds: expected comma-separated integer ids, got 'a'\n"

    @pytest.mark.parametrize(
        "argv, flag, count",
        [
            (REFERENCE, "--num-seeds", "0"),
            (REFERENCE, "--num-seeds", "-2"),
            (EVALUATE, "--test-size", "-1"),
        ],
        ids=["0", "-2", "evaluate-test-size--1"],
    )
    def test_reference_num_seeds_below_one_gives_exit_one(
        self, tmp_path, capsys, argv, flag, count
    ):
        """A count flag below 1 names itself, for `reference` and `evaluate` alike."""
        for name, text in GOOD_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [arg.format(d=tmp_path) for arg in argv]
        assert run(["--out-dir", str(tmp_path / "out"), *argv, flag, count]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {count}\n"

    def test_deterministic_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"deterministic": true}')
        assert run(["--config", str(config_path), "--print-config"]) == 1
        assert "deterministic" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2

    def test_inputs_not_mutated(self, tmp_path):
        assert run(
            [
                "--out-dir", str(tmp_path), "--seed", "7",
                "generate", "--model", "reciprocal-er", "--nodes", "30", "--p", "0.2",
            ]
        ) == 0
        before = (tmp_path / "edges.csv").read_bytes()
        out2 = tmp_path / "out2"
        assert run(
            [
                "--out-dir", str(out2), "--seed", "8",
                "sample",
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--max-sample-edges", "20",
                "--walker-count", "2",
            ]
        ) == 0
        assert (tmp_path / "edges.csv").read_bytes() == before


def profile_line(node, friend, **fields):
    record = {
        "node": node, "follower_count": 1, "friends_recent_first": [friend], "language": "de",
        "protected": False, "created_at": 0.0, "status_count": 0, "last_status_at": None,
    }
    return json.dumps({**record, **fields}) + "\n"


# A two-account world: edges 1 -> 2 and 2 -> 1, with matching profiles.
GOOD_FILES = {
    "edges.csv": "source,target\n1,2\n2,1\n",
    "profiles.jsonl": profile_line(1, 2) + profile_line(2, 1),
    "sample.csv": "source,target,provenance\n1,2,walked\n2,1,symmetric\n",
    "assignment.csv": "node,community\n1,0\n2,1\n",
    "docs.jsonl": '{"node": 1, "ts": 1.0, "text": "a"}\n{"node": 2, "ts": 2.0, "text": "b"}\n',
    "pool.txt": "1\n2\n",
}
SAMPLE = ["sample", "--profiles", "{d}/profiles.jsonl",
          "--max-sample-edges", "2", "--walker-count", "1"]
META = json.dumps(
    {"type": "meta", "clock_now": 0.0, "seed_pool_state": random.Random(0).getstate()}
)
WALKER = '{"type": "walker", "current": 1}\n'


def meta_at(clock_now):
    """META with another clock_now; json.dumps writes inf and nan as Infinity and NaN."""
    return META.replace('"clock_now": 0.0', f'"clock_now": {json.dumps(clock_now)}')
KEYWORDS = ["keywords", "--docs", "{d}/docs.jsonl", "--assignment", "{d}/assignment.csv"]


@pytest.mark.parametrize(
    "argv, name, text, lineno, names",
    [
        (["pagerank", "--graph", "{d}/edges.csv"], "edges.csv",
         "source,target\n1,2\n1_0,2\n", 3, "'1_0'"),
        (["pagerank", "--graph", "{d}/edges.csv"], "edges.csv",
         "source,target\n1,2\n\u0663,2\n", 3, "'\u0663'"),
        (["kcore", "--graph", "{d}/sample.csv", "--k", "1"], "sample.csv",
         "source,target,provenance\n1,2,walked\n1,x,walked\n", 3, "'x'"),
        (["communities", "--graph", "{d}/sample.csv"], "sample.csv",
         "source,target,provenance\n1,2,walked\n1,1,walked\n", 3, "self-loop 1,1"),
        (EVALUATE, "sample.csv",
         "source,target,provenance\n1,2,walked\n2,1,symmetric\n1,2,symmetric\n", 4,
         "edge 1,2 listed twice"),
        (KEYWORDS, "docs.jsonl", '{"node": 1, "ts": 1.0, "text": "a"}\n5\n', 2,
         "expected a JSON object, got 5"),
        (KEYWORDS, "docs.jsonl", '{"node": null, "ts": 1.0, "text": "a"}\n', 1, "field 'node'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         '{"clock_now": 0.0}\n', 1, "missing field 'type'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl", "nope\n", 1,
         "invalid JSON"),
        (SAMPLE + ["--seed-pool", "{d}/pool.txt"], "pool.txt", "1\n-1\n", 2, "'-1'"),
        (SAMPLE + ["--seed-pool", "{d}/pool.txt"], "pool.txt", "\n\n", None,
         "holds no account ids"),
        (["communities", "--graph", "{d}/edges.csv", "--assignment", "{d}/assignment.csv"],
         "assignment.csv", "node,community\n1,0\n1_0,1\n", 3, "'1_0'"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2) + profile_line(2, 1, follower_count=2.7),
         2, "field 'follower_count'"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2) + profile_line(2, 1, protected="false"),
         2, "field 'protected'"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2) + profile_line(2, 1, language=5),
         2, "field 'language'"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2) + profile_line(2, 1, created_at="1e9"),
         2, "field 'created_at'"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2) + profile_line(2, 1, status_count=True),
         2, "field 'status_count'"),
        (["--config", "{d}/config.json"] + SAMPLE, "config.json", '{"walker_count": "5"}\n',
         None, "field 'walker_count'"),
        (["--config", "{d}/config.json"] + SAMPLE, "config.json", "5\n", None,
         "expected a JSON object, got 5"),
        (["--config", "{d}/config.json"] + SAMPLE, "config.json", '{"walker_count": }\n', None,
         "invalid JSON"),
        (["pagerank", "--graph", "{d}/edges.csv"], "edges.csv", b"source,target\n1,2\n\xff,2\n",
         3, "can't decode byte 0xff"),
        (["pagerank", "--graph", "{d}/edges.csv"], "edges.csv",
         b"source,target\n" + b"1,2\n" * 5000 + b"2,\xff\n", 5002, "can't decode byte 0xff"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2).encode() + b'{"node": "\xff"}\n', 2,
         "can't decode byte 0xff"),
        (KEYWORDS + ["--stopwords", "{d}/stop.txt"], "stop.txt", b"the\r\n\xfe\r\n", 2,
         "can't decode byte 0xfe"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         '{"type": "meta", "clock_now": 0.0, "seed_pool_state": [3, [1, 2, 3], null]}\n', 1,
         "state vector is the wrong size"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl", META + "\n", None,
         "no walker records"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "edge", "s": 1, "t": 2, "p": "bogus"}\n', 2, "field 'p'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "edge", "s": 1, "t": 1, "p": "walked"}\n', 2, "self-loop 1,1"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "walker", "current": "1"}\n', 2, "field 'current'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "burnt", "s": 1, "t": 2}\n', 2, "unknown resume record type 'burnt'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl", WALKER, None,
         "missing meta record"),
        (KEYWORDS + ["--per-node-cap", "1"], "docs.jsonl", "", None, "holds no documents"),
        (REFERENCE, "edges.csv", "source,target\n", None, "graph has no edges"),
        (["--config", "{d}/config.json"] + SAMPLE, "config.json",
         '{"filter_seed_pool_language": true, "target_language": "xx"}\n', None,
         "filter_seed_pool_language: no seed-pool account has target_language 'xx'"),
        (EVALUATE + ["--language", "xx"], "profiles.jsonl", GOOD_FILES["profiles.jsonl"], None,
         "no account has --language 'xx'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         meta_at(float("inf")) + "\n" + WALKER, 1, "field 'clock_now'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         meta_at(float("nan")) + "\n" + WALKER, 1, "field 'clock_now'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         meta_at(-1.0) + "\n" + WALKER, 1, "field 'clock_now'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         meta_at(1e20) + "\n" + WALKER, None, "clock_now 1e+20 is too large"),
        (SAMPLE, "profiles.jsonl", profile_line(1, 2) + profile_line(2, 1, created_at=math.nan),
         2, "profile 2: created_at must be finite, got nan"),
        (EVALUATE, "profiles.jsonl",
         profile_line(1, 2, last_status_at=math.inf) + profile_line(2, 1), 1,
         "profile 1: last_status_at must be finite, got inf"),
        (KEYWORDS + ["--per-node-cap", "1"], "docs.jsonl",
         '{"node": 1, "ts": NaN, "text": "a"}\n{"node": 2, "ts": 2.0, "text": "b"}\n', 1,
         "field 'ts' must be finite, got nan"),
        (KEYWORDS + ["--per-node-cap", "1"], "docs.jsonl",
         '{"node": 1, "ts": 1.0, "text": "a"}\n{"node": 2, "ts": NaN, "text": "b"}\n', 2,
         "field 'ts' must be finite, got nan"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "edge", "s": 1, "t": 2, "p": "symmetric"}\n'
         '{"type": "edge", "s": 1, "t": 2, "p": "walked"}\n' + WALKER, 3,
         "edge 1,2 listed twice"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "charges", "endpoint": "friends", "key": 12, "t": [0.0]}\n'
         + WALKER, None, "charges of key 12, but key_count is 12"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "charges", "endpoint": "profiles", "key": 0, "t": [5.0]}\n'
         + WALKER, None, "a charge at t=5.0 is after clock_now 0.0"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "charges", "endpoint": "follows", "key": 0, "t": []}\n'
         + WALKER, 2, "field 'endpoint'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "charges", "endpoint": "friends", "key": -1, "t": []}\n'
         + WALKER, 2, "field 'key'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + '\n{"type": "charges", "endpoint": "friends", "key": 0, "t": [NaN]}\n'
         + WALKER, 2, "field 't'"),
        (SAMPLE + ["--resume-from", "{d}/resume.jsonl"], "resume.jsonl",
         META + "\n" + WALKER + WALKER, None, "holds 2 walkers, but walker_count is 1"),
    ],
    ids=[
        "edges-underscore", "edges-non-ascii-digit", "sample-non-integer", "sample-self-loop",
        "sample-repeated-edge",
        "docs-not-object", "docs-null-node", "resume-without-type", "resume-bad-json",
        "seed-pool-negative", "seed-pool-empty", "assignment-underscore", "profile-float-count",
        "profile-string-protected", "profile-integer-language", "profile-string-time",
        "profile-bool-count", "config-string-count", "config-not-object",
        "config-bad-json", "edges-not-utf8",
        "edges-not-utf8-past-first-block", "profiles-not-utf8", "stopwords-not-utf8",
        "resume-wrong-size-pool-state", "resume-without-walkers", "resume-bad-provenance",
        "resume-self-loop", "resume-walker-string-current", "resume-unknown-record-type",
        "resume-without-meta", "docs-empty-windowed",
        "reference-no-edges", "seed-pool-no-target-language", "evaluate-language-absent",
        "resume-infinite-clock", "resume-nan-clock", "resume-negative-clock",
        "resume-clock-past-window-resolution", "profile-nan-time", "profile-infinite-time",
        "docs-nan-time-first", "docs-nan-time-second", "resume-repeated-edge",
        "resume-charges-key-past-key-count", "resume-charge-after-clock",
        "resume-charges-unknown-endpoint", "resume-charges-negative-key",
        "resume-charges-nan-time", "resume-walkers-past-walker-count",
    ],
)
def test_malformed_input_gives_one_line_naming_path_and_line(
    tmp_path, capsys, argv, name, text, lineno, names
):
    """`text` may be bytes that are not UTF-8; lineno None is a file read whole."""
    for good_name, good_text in GOOD_FILES.items():
        (tmp_path / good_name).write_text(good_text, encoding="utf-8")
    if isinstance(text, bytes):
        (tmp_path / name).write_bytes(text)
    else:
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format(d=tmp_path) for arg in argv]
    rc = run(["--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    where = "" if lineno is None else f"line {lineno}: "
    assert rc == 1
    assert err.startswith(f"error: {tmp_path / name}: {where}") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--top-n", "-1", "--top-n must be >= 1, got -1"),
        ("--top-n", "0", "--top-n must be >= 1, got 0"),
        ("--per-node-cap", "-1", "--per-node-cap must be >= 1, got -1"),
        ("--per-node-cap", "0", "--per-node-cap must be >= 1, got 0"),
        ("--min-user-frac", "1.5", "--min-user-frac must lie in [0, 1], got 1.5"),
        ("--min-user-frac", "-0.1", "--min-user-frac must lie in [0, 1], got -0.1"),
        ("--min-user-frac", "nan", "--min-user-frac must lie in [0, 1], got nan"),
        ("--window-start", "nan", "--window-start must be <= 2.0, got nan"),
        ("--window-end", "nan", "--window-end must be >= 1.0, got nan"),
        ("--window-start", "3", "--window-start must be <= 2.0, got 3.0"),
        ("--window-end", "0.5", "--window-end must be >= 1.0, got 0.5"),
        ("--min-size", "0", "--min-size must be >= 1, got 0"),
        ("--min-size", "-3", "--min-size must be >= 1, got -3"),
    ],
)
def test_keywords_setting_out_of_range_gives_exit_one(tmp_path, capsys, flag, value, message):
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format(d=tmp_path) for arg in KEYWORDS]
    assert run(["--out-dir", str(tmp_path / "out"), *argv, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "keywords.csv").exists()


def test_keywords_out_in_a_new_directory(tmp_path):
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format(d=tmp_path) for arg in KEYWORDS]
    assert run(["--out-dir", str(tmp_path / "out"), *argv, "--out", "sub/kw.csv"]) == 0
    lines = (tmp_path / "out" / "sub" / "kw.csv").read_text().splitlines()
    assert lines[0] == "community,rank,token,chi2,user_fraction"


def test_resume_to_is_written_under_out_dir(tmp_path, monkeypatch):
    """--resume-to names a file under --out-dir, whose directory is made as
    --out-dir is; --resume-from is read as given."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(d=".") for arg in SAMPLE]
    assert run(["--out-dir", "s1", *argv, "--resume-to", "s1/resume.jsonl"]) == 0
    assert (tmp_path / "s1" / "sample.csv").is_file()
    assert (tmp_path / "s1" / "s1" / "resume.jsonl").is_file()
    assert run(
        ["--out-dir", "s2", *argv, "--resume-from", "s1/s1/resume.jsonl", "--out-sample", "a/b.csv"]
    ) == 0
    assert (tmp_path / "s2" / "a" / "b.csv").is_file()


def test_output_directory_that_cannot_be_made_fails_before_the_crawl(tmp_path, capsys):
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "taken").write_text("a file, not a directory\n")
    argv = [arg.format(d=tmp_path) for arg in SAMPLE]
    assert run(["--out-dir", str(out), *argv, "--resume-to", "taken/resume.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "taken") in err and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["taken"]


KCORE = ["kcore", "--graph", "{d}/edges.csv", "--k", "1"]
PAGERANK = ["pagerank", "--graph", "{d}/edges.csv"]
COMMUNITIES = ["communities", "--graph", "{d}/edges.csv"]


RANGE_ERRORS = [
    (COMMUNITIES, "--max-iters", "-1", "--max-iters must be >= 1, got -1"),
    (COMMUNITIES, "--max-iters", "0", "--max-iters must be >= 1, got 0"),
    (COMMUNITIES, "--min-size", "0", "--min-size must be >= 1, got 0"),
    (COMMUNITIES, "--min-weight", "-1", "--min-weight must be >= 0, got -1"),
    (PAGERANK, "--max-iters", "0", "--max-iters must be >= 1, got 0"),
    (PAGERANK, "--max-iters", "-1", "--max-iters must be >= 1, got -1"),
    (PAGERANK, "--tolerance", "-1", "--tolerance must be > 0, got -1.0"),
    (PAGERANK, "--tolerance", "0", "--tolerance must be > 0, got 0.0"),
    (PAGERANK, "--tolerance", "nan", "--tolerance must be > 0, got nan"),
    (PAGERANK, "--damping", "1.5", "--damping must lie in (0, 1), got 1.5"),
    (PAGERANK, "--damping", "0", "--damping must lie in (0, 1), got 0.0"),
    (REFERENCE, "--sample-size", "-2", "--sample-size must be >= 0, got -2"),
    (REFERENCE, "--rho", "0", "--rho must lie in (0, 1], got 0.0"),
    (REFERENCE, "--rho", "1.5", "--rho must lie in (0, 1], got 1.5"),
    (KCORE, "--k", "0", "--k must be >= 1, got 0"),
    (KCORE, "--min-in-degree", "-3", "--min-in-degree must be >= 0, got -3"),
    (EVALUATE, "--as-of", "nan", "--as-of must be finite, got nan"),
    (EVALUATE, "--as-of", "inf", "--as-of must be finite, got inf"),
]


@pytest.mark.parametrize(
    "argv, flag, value, message",
    RANGE_ERRORS,
    ids=[f"{argv[0]}{flag}={value}" for argv, flag, value, _ in RANGE_ERRORS],
)
def test_analysis_setting_out_of_range_gives_exit_one(
    tmp_path, capsys, argv, flag, value, message
):
    """A setting out of range ends in exit 1 with one line naming its flag, and
    no output is written."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format(d=tmp_path) for arg in argv]
    assert run(["--out-dir", str(tmp_path / "out"), *argv, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any((tmp_path / "out").iterdir())


RESUME = SAMPLE + ["--resume-from", "{d}/resume.jsonl"]
# RESUME in a world of accounts 1 and 2**63 - 1, each the other's friend, so a
# resumed edge between them is an edge of the world.
WIDE = 2**63 - 1
RESUME_WIDE = [arg.replace("profiles.jsonl", "wide.jsonl") for arg in RESUME]


def resume_text(record):
    """A resume file: META, then `record`, then a walker at account 1."""
    return f"{META}\n{json.dumps(record)}\n{WALKER}"


@pytest.mark.parametrize("edges, first", [
    ([(1, 3, "walked")], "1,3"),  # 3 is no friend of 1, and has no profile
    ([(1, 2, "walked"), (3, 1, "symmetric"), (2, 3, "walked")], "3,1"),  # no profile 3
    ([(2, 1, "symmetric"), (2, 9, "walked"), (7, 1, "walked")], "2,9"),
])
def test_resume_edge_outside_the_world_gives_one_line(tmp_path, capsys, edges, first):
    """Every resumed edge must be one that a crawl of the profiles can meet:
    the first that is not ends the run with exit 1 and one line naming the
    resume file and that edge, and no output is written."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    records = [json.dumps({"type": "edge", "s": s, "t": t, "p": p}) for s, t, p in edges]
    (tmp_path / "resume.jsonl").write_text("\n".join([META, *records, WALKER]))
    argv = [arg.format(d=tmp_path) for arg in RESUME]
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'resume.jsonl'}: edge {first} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "sample.csv").exists()


def test_resume_charges_are_ignored_with_rate_limits_off(tmp_path):
    """With rate limits off a resume file's charges are not read into a
    limiter, so a key past key_count is no error."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    record = {"type": "charges", "endpoint": "friends", "key": 12, "t": [0.0]}
    (tmp_path / "resume.jsonl").write_text(resume_text(record), encoding="utf-8")
    (tmp_path / "config.json").write_text('{"rate_limits_enabled": false}', encoding="utf-8")
    argv = ["--out-dir", str(tmp_path / "out"), *(arg.format(d=tmp_path) for arg in RESUME)]
    assert run(["--config", f"{tmp_path}/config.json", *argv]) == 0
    assert run(argv) == 1


def test_resume_file_sets_the_walker_count_unless_one_is_given(tmp_path, capsys):
    """With no --walker-count and no config walker_count, the resume file's
    two walkers step on and are saved again; a config walker_count that
    differs from them ends in exit 1 and one line naming the resume file."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "resume.jsonl").write_text(f"{META}\n{WALKER}{WALKER}", encoding="utf-8")
    argv = ["--out-dir", str(tmp_path / "out"), "sample", "--profiles",
            f"{tmp_path}/profiles.jsonl", "--max-sample-edges", "2",
            "--resume-from", f"{tmp_path}/resume.jsonl"]
    assert run([*argv, "--resume-to", "again.jsonl"]) == 0
    saved = (tmp_path / "out" / "again.jsonl").read_text()
    assert saved.count('"type":"walker"') == 2
    (tmp_path / "config.json").write_text('{"walker_count": 3}', encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", f"{tmp_path}/config.json", *argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path}/resume.jsonl: holds 2 walkers, but walker_count is 3\n"
    )


# Each reader of account ids: the command, the file, the file's text holding
# the id n once, and that id's line (None for a file read whole).
ID_READERS = {
    "edges": (PAGERANK, "edges.csv", lambda n: f"source,target\n1,2\n2,{n}\n", 3),
    "sample": (["kcore", "--graph", "{d}/sample.csv", "--k", "1"], "sample.csv",
               lambda n: f"source,target,provenance\n1,2,walked\n{n},1,symmetric\n", 3),
    "profile-node": (SAMPLE, "profiles.jsonl",
                     lambda n: profile_line(1, 2) + profile_line(n, 1), 2),
    "profile-friend": (SAMPLE, "profiles.jsonl",
                       lambda n: profile_line(1, n) + profile_line(2, 1), 1),
    "docs": (KEYWORDS, "docs.jsonl",
             lambda n: GOOD_FILES["docs.jsonl"] + json.dumps({"node": n, "ts": 3.0, "text": "c"}),
             3),
    "resume-s": (RESUME_WIDE, "resume.jsonl",
                 lambda n: resume_text({"type": "edge", "s": n, "t": 1, "p": "walked"}), 2),
    "resume-t": (RESUME_WIDE, "resume.jsonl",
                 lambda n: resume_text({"type": "edge", "s": 1, "t": n, "p": "walked"}), 2),
    "resume-n": (RESUME, "resume.jsonl", lambda n: resume_text({"type": "seed_node", "n": n}), 2),
    # the file holds two walkers: this one and resume_text's
    "resume-current": (RESUME + ["--walker-count", "2"], "resume.jsonl",
                       lambda n: resume_text({"type": "walker", "current": n}), 2),
    "seed-pool": (SAMPLE + ["--seed-pool", "{d}/pool.txt"], "pool.txt", lambda n: f"1\n{n}\n", 2),
    "assignment": (KEYWORDS, "assignment.csv", lambda n: f"node,community\n1,0\n{n},1\n", 3),
    "config-calls-per-window": (["--config", "{d}/config.json"] + SAMPLE, "config.json",
                                lambda n: json.dumps({"friends_calls_per_window": n}), None),
}


@pytest.mark.parametrize("argv, name, text, lineno", ID_READERS.values(), ids=ID_READERS)
def test_each_reader_rejects_2_to_the_63_and_takes_one_less(
    tmp_path, capsys, argv, name, text, lineno
):
    """Account ids, and calls per rate window, are in [0, 2**63): 2**63 ends in
    exit 1 with one line naming the file and line, and the same file with
    2**63 - 1 is read and the command succeeds."""
    for good_name, good_text in GOOD_FILES.items():
        (tmp_path / good_name).write_text(good_text, encoding="utf-8")
    (tmp_path / "wide.jsonl").write_text(profile_line(1, WIDE) + profile_line(WIDE, 1))
    argv = [arg.format(d=tmp_path) for arg in argv]
    path = tmp_path / name
    path.write_text(text(2**63), encoding="utf-8")
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 1
    err = capsys.readouterr().err
    where = "" if lineno is None else f"line {lineno}: "
    assert err.startswith(f"error: {path}: {where}") and err.count("\n") == 1
    assert "< 2**63" in err and str(2**63) in err
    path.write_text(text(2**63 - 1), encoding="utf-8")
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 0


def test_reference_seed_of_2_to_the_63_gives_one_line_and_one_less_is_taken(tmp_path, capsys):
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "edges.csv").write_text(f"source,target\n1,2\n2,{2**63 - 1}\n")
    argv = [arg.format(d=tmp_path) for arg in REFERENCE]
    assert run(["--out-dir", str(tmp_path / "out"), *argv, "--seeds", f"1,{2**63}"]) == 1
    assert capsys.readouterr().err == (
        f"error: --seeds: expected an account id < 2**63, got '{2**63}'\n"
    )
    assert run(["--out-dir", str(tmp_path / "out"), *argv, "--seeds", f"1,{2**63 - 1}"]) == 0


def generate_argv(model):
    return ["generate", "--model", model, "--nodes", "10"]


FLAG_ERRORS = [
    (generate_argv("reciprocal-er"), "--nodes", "0",
     "--nodes must be >= 1, got 0"),
    (generate_argv("preferential-attachment"), "--nodes", "3",
     "--nodes must be >= 4 (m + 1 per block), got 3"),
    (generate_argv("two-class"), "--nodes", "1",
     "--nodes must be >= 2, got 1"),
    (generate_argv("planted-blocks") + ["--blocks", "3"], "--nodes", "11",
     "--nodes must be >= 12 (m + 1 per block), got 11"),
    (generate_argv("reciprocal-er"), "--p", "2", "--p must lie in [0, 1], got 2.0"),
    (generate_argv("reciprocal-er"), "--p", "nan", "--p must lie in [0, 1], got nan"),
    (generate_argv("two-class"), "--p", "0", "--p must lie in (0, 1], got 0.0"),
    (generate_argv("two-class"), "--p", "1.5", "--p must lie in (0, 1], got 1.5"),
    (generate_argv("preferential-attachment"), "--m", "0", "--m must be >= 1, got 0"),
    (generate_argv("two-class"), "--factor", "0.5", "--factor must be >= 1, got 0.5"),
    (generate_argv("two-class"), "--high-fraction", "0",
     "--high-fraction must lie in (0, 1), got 0.0"),
    (generate_argv("planted-blocks"), "--blocks", "0", "--blocks must be >= 1, got 0"),
    (generate_argv("planted-blocks"), "--cross-fraction", "2",
     "--cross-fraction must lie in [0, 1], got 2.0"),
    (SAMPLE, "--walker-count", "0", "--walker-count must be >= 1, got 0"),
    (SAMPLE, "--page-size", "0", "--page-size must be >= 1, got 0"),
    (SAMPLE, "--max-steps", "-1", "--max-steps must be >= 0, got -1"),
    (SAMPLE, "--max-sample-edges", "-3", "--max-sample-edges must be >= 0, got -3"),
    (SAMPLE, "--max-sample-nodes", "-1", "--max-sample-nodes must be >= 0, got -1"),
    (SAMPLE, "--max-simulated-seconds", "-5", "--max-simulated-seconds must be >= 0, got -5.0"),
    (SAMPLE, "--max-simulated-seconds", "nan", "--max-simulated-seconds must be >= 0, got nan"),
]


@pytest.mark.parametrize(
    "argv, flag, value, message",
    FLAG_ERRORS,
    ids=[f"{argv[0]}{flag}={value}" for argv, flag, value, _ in FLAG_ERRORS],
)
def test_generate_or_sample_setting_out_of_range_names_the_flag(
    tmp_path, capsys, argv, flag, value, message
):
    """A generator or sampler setting out of range ends in exit 1 with one line
    naming its flag, and no output is written."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format(d=tmp_path) for arg in argv]
    assert run(["--out-dir", str(tmp_path / "out"), *argv, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "model, flag, value",
    [
        ("preferential-attachment", "--p", "2"),
        ("reciprocal-er", "--m", "0"),
        ("reciprocal-er", "--blocks", "0"),
        ("two-class", "--cross-fraction", "2"),
        ("planted-blocks", "--factor", "0.5"),
    ],
)
def test_generate_ignores_a_setting_its_model_does_not_read(tmp_path, model, flag, value):
    argv = ["--out-dir", str(tmp_path), "generate", "--model", model, "--nodes", "20"]
    assert run([*argv, flag, value]) == 0


# The library functions each command passes its settings to.
FEEDS = {
    "generate": (generate_network, build_profiles),
    "sample": (SamplerConfig, ApiBudget),
    "reference": (rank_degree,),
    "evaluate": (coverage_report, activity),
    "kcore": (k_core,),
    "pagerank": (pagerank,),
    "communities": (label_propagation, community_graph),
    "keywords": (window_docs, keywords_by_community),
}


def test_no_option_repeats_a_library_default():
    """An option that sets a parameter of a library function defaults to None,
    so the parameter's default is declared once, in the function."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands.choices.keys() == FEEDS.keys()
    for command, functions in FEEDS.items():
        parameters = set().union(*(inspect.signature(f).parameters for f in functions))
        repeated = [
            action.dest
            for action in commands.choices[command]._actions
            if action.dest in parameters and action.default is not None
        ]
        assert not repeated, command


# `sample` with no flag for a run-config field, so the config file's values reach the run.
CONFIG_SAMPLE = ["--config", "{d}/config.json", "sample", "--profiles", "{d}/profiles.jsonl"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"max_steps": -1}', "max_steps must be >= 0, got -1"),
        ('{"max_simulated_seconds": NaN}', "max_simulated_seconds must be >= 0, got nan"),
        ('{"key_count": 0}', "key_count must be >= 1, got 0"),
        ('{"page_size": 0}', "page_size must be >= 1, got 0"),
        ('{"profile_batch": 0}', "profile_batch must be >= 1, got 0"),
        ('{"friends_calls_per_window": 0}', "friends_calls_per_window must be >= 1, got 0"),
        ('{"walker_count": 0}', "walker_count must be >= 1, got 0"),
        ('{"friends_window_seconds": NaN}',
         "friends_window_seconds must be finite and > 0, got nan"),
        ('{"friends_window_seconds": Infinity, "key_count": 1}',
         "friends_window_seconds must be finite and > 0, got inf"),
        ('{"profile_window_seconds": NaN}',
         "profile_window_seconds must be finite and > 0, got nan"),
        ('{"profile_window_seconds": Infinity, "key_count": 1}',
         "profile_window_seconds must be finite and > 0, got inf"),
    ],
)
def test_config_stop_out_of_range_gives_exit_one(tmp_path, capsys, text, message):
    """A config field out of range ends in exit 1 with one line naming the file
    and the field, and no output is written."""
    for name, good_text in GOOD_FILES.items():
        (tmp_path / name).write_text(good_text, encoding="utf-8")
    (tmp_path / "config.json").write_text(text, encoding="utf-8")
    argv = [a.format(d=tmp_path) for a in CONFIG_SAMPLE] + ["--max-sample-edges", "2"]
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'config.json'}: {message}\n"
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "config",
    [
        {"friends_window_seconds": 1e-300},
        {"profile_window_seconds": 1e-300, "profile_batch": 1},
    ],
    ids=["friends", "profiles"],
)
def test_rate_window_too_small_for_the_clock_gives_exit_one(tmp_path, capsys, config):
    """A window that the clock, once moved on by the other endpoint's wait,
    cannot be added to (900 + 1e-300 == 900) never frees a slot: the run ends
    in exit 1 with one line naming the window and the clock."""
    config = {**config, "key_count": 1, "friends_calls_per_window": 1,
              "profile_calls_per_window": 1}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = ["--out-dir", str(tmp_path)]
    assert run([*argv, "generate", "--model", "reciprocal-er", "--nodes", "60"]) == 0
    capsys.readouterr()
    argv += ["--config", str(tmp_path / "config.json"), "sample", "--profiles",
             str(tmp_path / "profiles.jsonl"), "--max-sample-edges", "30", "--walker-count", "2"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a rate window of 1e-300 s is too small to free a slot at "
                          "simulated time ") and err.count("\n") == 1


def test_flag_in_range_wins_over_config_out_of_range(tmp_path, capsys):
    for name, good_text in GOOD_FILES.items():
        (tmp_path / name).write_text(good_text, encoding="utf-8")
    (tmp_path / "config.json").write_text('{"walker_count": 0, "page_size": 0}')
    argv = [a.format(d=tmp_path) for a in CONFIG_SAMPLE]
    argv += ["--max-sample-edges", "2", "--walker-count", "1", "--page-size", "1"]
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 0
    assert capsys.readouterr().err == ""


class Captured(Exception):
    """Raised in place of run_sample, holding the SamplerConfig and ApiBudget
    that `sample` built."""


def captured_settings(monkeypatch, tmp_path, config, flags=(), global_flags=()):
    def stand_in(sampler_config, oracle, seed_pool, resume=None):
        raise Captured(sampler_config, oracle.budget)

    monkeypatch.setattr(cli, "run_sample", stand_in)
    for name, good_text in GOOD_FILES.items():
        (tmp_path / name).write_text(good_text, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = [*global_flags, *(a.format(d=tmp_path) for a in CONFIG_SAMPLE), *flags]
    with pytest.raises(Captured) as caught:
        run(["--out-dir", str(tmp_path / "out"), *argv])
    sampler_config, budget = caught.value.args
    return {**dataclasses.asdict(sampler_config), **dataclasses.asdict(budget)}


def sample_flags():
    """{field: (flag, value it sets or None)} for each run-config field a flag sets."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        action.dest: (action.option_strings[0], action.const)
        for action in commands.choices["sample"]._actions
        if action.dest in RUN_CONFIG_FIELDS
    }
    flags["rng_seed"] = ("--seed", None)  # a global flag
    return flags


DECLARED = [
    f.name
    for cls in (SamplerConfig, ApiBudget)
    for f in dataclasses.fields(cls)
    if f.name in RUN_CONFIG_FIELDS
]


@pytest.mark.parametrize("field", DECLARED)
def test_config_field_reaches_the_run_and_its_flag_wins(monkeypatch, tmp_path, field):
    """A non-default value in the config file reaches the SamplerConfig or the
    ApiBudget, and the field's flag, where one exists, wins over the file."""
    defaults = json.loads(DEFAULT_CONFIG_TEXT)
    del defaults["filter_seed_pool_language"]
    default = defaults[field]
    if isinstance(default, bool):
        value = not default
    elif isinstance(default, str):
        value = "xx"
    else:
        value = (default or 0) + 3
    config = {"max_sample_edges": 2, field: value}
    assert captured_settings(monkeypatch, tmp_path, config).items() >= {
        **defaults, **config
    }.items()
    flag = sample_flags().get(field)
    if flag is None:
        return
    option, const = flag
    if const is None:  # the flag takes a value
        override = "yy" if isinstance(value, str) else value + 2
        flags = [option, str(override)]
    else:  # a switch: the file holds the value it does not set
        config[field], override, flags = not const, const, [option]
    flags, global_flags = ([], flags) if option == "--seed" else (flags, [])
    assert captured_settings(monkeypatch, tmp_path, config, flags, global_flags)[field] == override


def test_pagerank_non_convergence_gives_one_warning_line(tmp_path, capsys, caplog):
    """Without a logging set-up, a logged warning reaches stderr through the
    last-resort handler, so the warning line must be the only report."""
    (tmp_path / "edges.csv").write_text("source,target\n1,2\n", encoding="utf-8")
    argv = ["--out-dir", str(tmp_path), *PAGERANK, "--max-iters", "1"]
    assert run([arg.format(d=tmp_path) for arg in argv]) == 0
    assert capsys.readouterr().err == "warning: pagerank did not converge in 1 iterations\n"
    assert not caplog.records


@pytest.mark.parametrize("header", ["source,target", "source,target,provenance"])
@pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n", " \n"])
def test_no_rows_gives_an_empty_core_and_the_pagerank_error(tmp_path, capsys, header, body):
    """A header-only or empty-body file is an empty graph, read with no
    warning: kcore writes an empty core and pagerank ends in its one line."""
    (tmp_path / "edges.csv").write_bytes((header + body).encode())
    argv = [arg.format(d=tmp_path) for arg in ["--out-dir", "{d}", *KCORE]]
    assert run(argv) == 0
    assert capsys.readouterr() == ("1-core: 0 nodes, 0 edges\n", "")
    assert (tmp_path / "kcore.csv").read_text() == "source,target\n"
    assert run([arg.format(d=tmp_path) for arg in ["--out-dir", "{d}", *PAGERANK]]) == 1
    assert capsys.readouterr() == ("", "error: pagerank requires a non-empty graph\n")


def test_unreachable_stop_ends_exhausted(tmp_path):
    """The two-account world holds 2 edges, so a 3-edge stop is never reached."""
    for name, text in GOOD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.format(d=tmp_path) for arg in SAMPLE]
    argv[argv.index("--max-sample-edges") + 1] = "3"
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["stop_reason"] == "exhausted"
    assert stats["sample_edges"] == 2


def test_sample_reads_only_profiles(tmp_path):
    """A world given as profiles alone: account 3 has no edge, and account 1 lists
    friend 9, which has no profile. The run is driven to exhaustion, which visits
    every account of the default pool."""
    (tmp_path / "profiles.jsonl").write_text(
        profile_line(1, 2, friends_recent_first=[9, 2])
        + profile_line(2, 1)
        + profile_line(3, None, friends_recent_first=[]),
        encoding="utf-8",
    )
    argv = [arg.format(d=tmp_path) for arg in SAMPLE]
    argv[argv.index("--max-sample-edges") + 1] = "3"
    argv += ["--resume-to", "resume.jsonl"]
    assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 0
    out = tmp_path / "out"
    assert json.loads((out / "stats.json").read_text())["stop_reason"] == "exhausted"
    records = [json.loads(line) for line in (out / "resume.jsonl").read_text().splitlines()]
    assert 3 in {r["n"] for r in records if r["type"] == "seed_node"}
    graph, _ = read_sample_csv(out / "sample.csv")
    assert sorted(graph.edges()) == [(1, 2), (2, 1)]
    calls = [json.loads(line) for line in (out / "call_log.jsonl").read_text().splitlines()]
    assert [9] not in [c["nodes"] for c in calls if c["endpoint"] == "friends"]


# Every command on a 1000-node world, sampled in two parts through a resume file.
PIPELINE = [
    ["--seed", "42", "generate", "--model", "planted-blocks", "--nodes", "1000", "--m", "3",
     "--blocks", "3", "--language-fraction", "0.9", "--protected-fraction", "0.02"],
    ["--seed", "7", "sample", "--profiles", "{d}/profiles.jsonl",
     "--max-sample-edges", "800", "--walker-count", "20", "--resume-to", "resume_first.jsonl",
     "--out-sample", "sample_first.csv", "--out-stats", "stats_first.json",
     "--out-growth", "growth_first.csv", "--out-call-log", "call_log_first.jsonl"],
    ["--seed", "7", "sample", "--profiles", "{d}/profiles.jsonl",
     "--max-sample-edges", "2000", "--walker-count", "20",
     "--resume-from", "{d}/resume_first.jsonl", "--resume-to", "resume.jsonl"],
    ["--seed", "8", "evaluate", "--sample", "{d}/sample.csv", "--profiles", "{d}/profiles.jsonl",
     "--test-size", "200"],
    ["kcore", "--graph", "{d}/sample.csv", "--k", "3", "--min-in-degree", "1",
     "--out", "core.csv"],
    ["--seed", "5", "communities", "--graph", "{d}/core.csv", "--min-size", "10"],
    ["pagerank", "--graph", "{d}/core.csv"],
    ["--seed", "9", "reference", "--graph", "{d}/edges.csv", "--sample-size", "500"],
    ["keywords", "--docs", "{d}/docs.jsonl", "--assignment", "{d}/assignment.csv",
     "--top-n", "5"],
    ["keywords", "--docs", "{d}/docs.jsonl", "--assignment", "{d}/assignment.csv",
     "--top-n", "5", "--per-node-cap", "2", "--out", "keywords_cap.csv"],
    ["keywords", "--docs", "{d}/docs.jsonl", "--assignment", "{d}/assignment.csv",
     "--top-n", "5", "--window-start", "2", "--per-node-cap", "1",
     "--out", "keywords_window.csv"],
]


def run_pipeline(directory):
    """Run PIPELINE in `directory`; return the sha256 of every file it wrote."""
    docs = directory / "docs.jsonl"
    with open(docs, "w", encoding="utf-8") as fh:
        for node in range(1000):
            for k in range(3):
                text = f"word{node % 5} topic{node % 3 + k} tag{(node * k) % 7}"
                fh.write(json.dumps({"node": node, "ts": float(node % 4 + k), "text": text}))
                fh.write("\n")
    for argv in PIPELINE:
        assert run(["--out-dir", str(directory), *(a.format(d=directory) for a in argv)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path != docs
    }


# sha256 of each file PIPELINE writes: a run is byte-reproducible, so any change
# here is a change in what the commands write.
PIPELINE_DIGESTS = {
    "activity_hist.csv": "08d028f714ac917df2ba83b3143eee67ec7990e8cf94b48e58a43895c69139c4",
    "assignment.csv": "1b414a65935d0a1a1b44c1cf65495ba2e9fac0d8a0df3c55c1c8857df968c7f9",
    "call_log.jsonl": "a214572b1f9cdf27fd86f7297d85f0a93d9df83926c2464f1891f283c03b248f",
    "call_log_first.jsonl": "99127800ae758908bc728fe27fc61b39c111ce901ad5f37d2c92fa7b89bb8aec",
    "community_graph.csv": "de44ecada27f13882022e9c04047bc7787f77e28f04080edae223e8882d220eb",
    "community_sizes.csv": "79dc74c80bbd204d0692e288b71ebddf18341a3b335424d4d8f25e5e4ac4e00b",
    "core.csv": "a12b4904377746b6d652817eeee88527e48602d22a975b577d59321836aada08",
    "coverage_report.csv": "41d5a16bfe3c00b30b7fa8a1b279e63549675574bb864727bc52208b004a12ed",
    "edges.csv": "e47a014edd48ee034e093dc885ed28cfa573f40a272dd2a8f4751113629618ef",
    "growth.csv": "58f17b8d85b60da773cb4ddb0c634b767f52e85dc4c07000b131217426d4236f",
    "growth_first.csv": "ec718a6a0582e2060d3cd4218d9127d97729221bf5b9bcae75a8640e76f42db3",
    "keywords.csv": "2534b607adc369acc539246a4a514656188c0e3d8989381e86a68146cbd07a14",
    "keywords_cap.csv": "68c820ce7bd419f0a33938c6b40a8999a253fbb34cf0a985a3fc50f7b64dd47c",
    "keywords_window.csv": "442c0f76ccbe0032be958037463e92c864be8278c68ba556ad01c0c37c79f3e5",
    "pagerank.csv": "4fe3fecfe1d43665b6540b679e0864954c9762c3a99cd480f3edb3bed9156dbe",
    "profiles.jsonl": "afaf8f0d4e62fae796fdaf6756d2e621ae4ab7131420475f0e0a848dfa9ae454",
    "rank_coverage.csv": "7f66132ff9fe396e54c6ca7e2f57cc3976da382874c47394aa2a6391bfe19f32",
    "rank_reach.csv": "7fe29ab02dd872910a738a036e4783b18c7ba48e0728f7ace2f0cef39f09f7b1",
    "reference_sample.csv": "16f25bb77127cade72395b9e3c69432df88b30c48d2c7a95c8c25a6d8f486d8d",
    "resume.jsonl": "36028e35eaf5f3b445fcf7078f6becddee13d343835c03317f469b701107e29f",
    "resume_first.jsonl": "39b422c4588922984443c1376f2322ce027f5d77a4271b473582022a22f82f34",
    "sample.csv": "283c43dfee5b9dc9b4095cd63a18f51f52ddc8047f1e6676ab1258d0e9c7dae6",
    "sample_first.csv": "d21c49ecde16964a2cfb65b49744b1534649af678c7deb644aaf9de5eb68c058",
    "stats.json": "7258725fa6313cf0cec0d375f8d6781603800e2bc3596b4e0519839ae1764489",
    "stats_first.json": "9a42a4aff7d6bbc123382c12c969dafeff1566c90d8f1626b002fa5d8c1d2b88",
}


def test_pipeline_outputs_match_recorded_digests(tmp_path):
    assert run_pipeline(tmp_path) == PIPELINE_DIGESTS


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_pipeline():
    """The arguments of each `rankwalk` line of README's pipeline block, its
    `\\` continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("A complete pipeline on synthetic data", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rankwalk ")]


def test_readme_pipeline_runs(tmp_path, monkeypatch):
    """Each command of README's pipeline exits 0, run in order in a directory
    that holds only the two files the user supplies: docs.jsonl and
    stopwords.txt."""
    monkeypatch.chdir(tmp_path)
    docs = [Doc(node, node % 7, f"the w{node % 11} tag{node % 13}") for node in range(0, 5000, 7)]
    write_docs_jsonl(docs, tmp_path / "docs.jsonl")
    (tmp_path / "stopwords.txt").write_text("the\na\n", encoding="utf-8")
    commands = readme_pipeline()
    names = {"generate", "sample", "reference", "evaluate", "kcore", "pagerank", "communities",
             "keywords"}
    assert [name for argv in commands for name in argv if name in names] == [
        "generate", "sample", "evaluate", "kcore", "communities", "keywords", "reference",
        "pagerank",
    ]
    for argv in commands:
        assert run(argv) == 0, argv
