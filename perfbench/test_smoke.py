"""Smoke test of the benchmark at tiny input sizes.

Runs every workload once untraced and once traced through run.py, exactly as
the full benchmark runs, but on graphs of a few thousand nodes, so it finishes
in seconds. The full-size workloads never run under pytest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Differences of two timings; may read zero or below.
SIGNED = {"sampler.trace_overhead_s"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(
                "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny",
            )
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_checks_pass_and_every_metric_is_reported(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(results, workload):
    metrics = results[workload, 0]["metrics"]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_every_per_layer_metric_is_measured_on_some_workload(results):
    for m in SPEC["per_layer"]:
        if m["name"] in SIGNED:
            continue
        values = [results[w, 1]["metrics"][m["name"]]["value"] for w in WORKLOADS]
        assert any(v > 0 for v in values), m["name"]


def test_traced_crawl_busy_times_add_up_to_the_run_sample_span(results):
    metrics = {k: v["value"] for k, v in results["crawl", 1]["metrics"].items()}
    parts = sum(
        metrics[name]
        for name in (
            "oracle.get_friends.busy_s",
            "oracle.get_profiles.busy_s",
            "oracle.follows.busy_s",
            "sampler.select_target.busy_s",
        )
    )
    assert metrics["sampler.self_s"] > 0
    assert parts < metrics["sampler.run_sample_s"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
