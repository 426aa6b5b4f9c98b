import json

import pytest

from rankwalk.cli import RunConfig, main
from rankwalk.communities import load_assignment
from rankwalk.graph import read_edge_list, read_profiles
from rankwalk.keywords import Doc, write_docs_jsonl
from rankwalk.sampler import read_sample_csv


def run(argv):
    return main(argv)


class TestConfig:
    def test_print_config_is_valid_json(self, capsys):
        assert run(["--print-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["walker_count"] == 200
        assert config["friends_calls_per_window"] == 15

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(RunConfig(walker_count=7, rng_seed=3).to_json())
        loaded = RunConfig.from_file(path)
        assert loaded.walker_count == 7
        assert loaded.rng_seed == 3

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"walker_countt": 7}')
        with pytest.raises(ValueError, match="walker_countt"):
            RunConfig.from_file(path)


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
                "--graph", f"{d}/edges.csv",
                "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "120",
                "--walker-count", "4",
                "--resume-to", "resume.jsonl",
            ]
        )
        assert rc == 0
        sample_graph, provenance = read_sample_csv(fixture_dir / "sample.csv")
        assert sample_graph.num_edges() >= 120
        assert set(provenance.values()) <= {"walked", "symmetric"}
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
                "--graph", f"{d}/edges.csv",
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
        graph, provenance = read_sample_csv(fixture_dir / "reference_sample.csv")
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
            RunConfig(
                filter_seed_pool_language=True,
                max_sample_edges=40,
                max_steps=50000,
                walker_count=3,
            ).to_json()
        )
        assert run(
            [
                "--config", str(config_path), "--out-dir", d, "--seed", "31",
                "sample",
                "--graph", f"{d}/edges.csv",
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
                "--graph", f"{d}/edges.csv", "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "60", "--walker-count", "3",
                "--resume-to", "resume.jsonl",
            ]
        ) == 0
        first, _ = read_sample_csv(tmp_path / "sample.csv")
        assert run(
            [
                "--out-dir", d, "--seed", "33",
                "sample",
                "--graph", f"{d}/edges.csv", "--profiles", f"{d}/profiles.jsonl",
                "--max-sample-edges", "140", "--walker-count", "3",
                "--resume-from", f"{d}/resume.jsonl",
                "--out-sample", "sample2.csv",
            ]
        ) == 0
        combined, _ = read_sample_csv(tmp_path / "sample2.csv")
        assert combined.num_edges() >= 140
        for s, t in first.edges():
            assert combined.has_edge(s, t)


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
            RunConfig(filter_seed_pool_language=True, max_sample_edges=20).to_json()
        )
        pool_path = tmp_path / "pool.txt"
        pool_path.write_text(pool_text)
        capsys.readouterr()
        rc = run(
            [
                "--config", str(config_path), "--out-dir", d,
                "sample",
                "--graph", f"{d}/edges.csv", "--profiles", f"{d}/profiles.jsonl",
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

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_reference_num_seeds_below_one_gives_exit_one(self, tmp_path, capsys, count):
        rc, err = self.reference_run(tmp_path, ["--num-seeds", count], capsys)
        assert rc == 1
        assert err == f"error: --num-seeds must be >= 1, got {count}\n"

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
                "--graph", str(tmp_path / "edges.csv"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--max-sample-edges", "20",
                "--walker-count", "2",
            ]
        ) == 0
        assert (tmp_path / "edges.csv").read_bytes() == before
