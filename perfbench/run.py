"""rankwalk benchmark: one run of one workload.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Run from the root of a rankwalk checkout. A run sets the workload's inputs up
SETUP_REPS times, each in its own process, and reports the median as
``setup_s``. It then starts one fresh process per measured run, so that
``peak_rss_mb`` excludes generation and every run starts from the same heap:
at least MIN_RUNS of them, more while fewer than ``--seconds`` seconds have been
measured. With ``--trace 0`` it reports the median of every end-to-end metric
in BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced runs
and reports every per-layer metric from the traced ones.

Every output check of every process counts as one attempted operation. The
last line of standard output is the result object; a full record (inputs,
environment, digests, counts, checks, spans) is written to
``.perfbench/results/``. Inputs and outputs are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SETUP_REPS = 3
MIN_RUNS = 3
TRACE_PAIRS = 2
# Every run must end within 180 s; stop starting processes before that.
DEADLINE_S = 170.0


class Child:
    """Starts workloads.py processes one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int, scale: str, deadline: float) -> None:
        self.prefix = [sys.executable, str(HERE / "workloads.py")]
        self.args = [workload, str(seed), scale]
        self.deadline = deadline

    def __call__(self, role: str, *rest) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left for the {role} process")
        proc = subprocess.run(
            [*self.prefix, role, *self.args, *map(str, rest)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{role} process exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def consistency_checks(setups: list[dict], runs: list[dict]) -> list[dict]:
    """Runs of the same inputs must agree exactly: input files across set-ups,
    output digests and counts across measured runs."""
    checks = []

    def same(name, items):
        first = items[0]
        differing = sum(1 for item in items if item != first)
        checks.append({"name": name, "ok": differing == 0, "detail": f"differing={differing}"})

    same("set-ups write identical input files", [s["files"] for s in setups])
    same("measured runs write identical outputs", [r["digests"] for r in runs])
    same("measured runs report identical counts", [r["counts"] for r in runs])
    return checks


def run(args, spec: dict) -> dict:
    start = time.monotonic()
    child = Child(args.workload, args.seed, args.scale, start + DEADLINE_S)
    work = WORK / f"{args.workload}-s{args.seed}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    runs: list[dict] = []
    untraced: list[dict] = []
    try:
        setups = [child("setup", inputs) for _ in range(SETUP_REPS)]
        measured_s = 0.0
        index = 0
        while True:
            traced = args.trace and index % 2 == 1
            out = work / f"run{index}"
            began = time.monotonic()
            record = child("measure", inputs, out, int(traced))
            took = time.monotonic() - began
            shutil.rmtree(out, ignore_errors=True)
            if args.trace and not traced:
                untraced.append(record)
            else:
                runs.append(record)
            index += 1
            measured_s += took
            if args.trace:
                if index == 2 * TRACE_PAIRS:
                    break
            elif len(runs) >= MIN_RUNS and (
                measured_s >= args.seconds
                or time.monotonic() + took > start + DEADLINE_S
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for r in runs + untraced for c in r["checks"]]
    checks += consistency_checks(setups, runs + untraced)
    failed = sum(1 for c in checks if not c["ok"])

    if args.trace:
        wanted = spec["per_layer"]
        values = {
            name: statistics.median(r["values"].get(name, 0.0) for r in runs)
            for name in (m["name"] for m in wanted)
        }
        for name in setups[0]["layers"]:
            values[name] = statistics.median(s["layers"][name] for s in setups)
        values["sampler.trace_overhead_s"] = statistics.median(
            r["values"].get("sampler.run_sample_s", 0.0) for r in runs
        ) - statistics.median(r["values"].get("sampler.run_sample_s", 0.0) for r in untraced)
    else:
        wanted = spec["end_to_end"]
        values = {
            name: statistics.median(r["values"][name] for r in runs)
            for name in (m["name"] for m in wanted)
            if name != "setup_s"
        }
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "environment": setups[0]["environment"],
        "input_files": setups[0]["files"],
        "setups": setups,
        "runs": runs,
        "untraced_runs": untraced,
        "failed_checks": [c for c in checks if not c["ok"]],
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-{args.scale}-t{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for run_record in runs + untraced:
        print("digests", json.dumps(run_record["digests"], sort_keys=True))
        print("counts", json.dumps(run_record["counts"], sort_keys=True))
    for check in record["failed_checks"]:
        print("FAILED", check["name"], check["detail"])
    print("environment", json.dumps(record["environment"], sort_keys=True))
    print("input_bytes", json.dumps({k: v["bytes"] for k, v in record["input_files"].items()}))
    for metric_name, metric in metrics.items():
        print(f"{metric_name} {metric['value']} {metric['unit']}")
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; tiny is for the smoke test",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so that subprocess.run kills and
    # reaps the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rankwalk" / "__init__.py").is_file():
        print(f"perfbench: no rankwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
