"""Inputs and measured pipelines of the three benchmark workloads.

``run.py`` starts this file as a fresh child process for every set-up and every
measured run:

    python3 perfbench/workloads.py setup   WORKLOAD SEED SCALE INPUTS
    python3 perfbench/workloads.py measure WORKLOAD SEED SCALE INPUTS OUT TRACE

A set-up writes the workload's input files into INPUTS. A measured run reads
them, calls the same public functions the CLI commands call, in the same
order, writes its outputs into OUT and checks them. Each prints one JSON
object as its last line of standard output. The library under test is imported from the
``src`` directory next to this one, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankwalk"

# Ground-truth generators. reference-analyze reads the crawl ground truth.
# cross_fraction=0.1 links the blocks well enough that a one-seed rank-degree
# walk reaches every block on every seed; at the generator's default of 0.02
# it misses a whole block on about one seed in three, and its quality figures
# then spread more across seeds than any bound allows.
PLANTED = dict(
    model="planted-blocks", m=5, blocks=4, cross_fraction=0.1,
    language_fraction=0.9, protected_fraction=0.01,
)
GROUND_TRUTH = {
    "crawl": PLANTED,
    "bulk-load": dict(model="preferential-attachment", m=5),
    "reference-analyze": PLANTED,
}

# Sizes per scale. "full" is what the benchmark measures; "tiny" keeps the same
# pipelines small enough for the smoke test.
SIZES = {
    "full": {
        "crawl": dict(nodes=50_000, sample_edges=50_000, test_size=1_000),
        "bulk-load": dict(nodes=100_000, sample_edges=25_000, test_size=1_000),
        "reference-analyze": dict(
            nodes=50_000, sample_edges=25_000, test_size=5_000, min_community=101
        ),
    },
    "tiny": {
        "crawl": dict(nodes=3_000, sample_edges=3_000, test_size=200),
        "bulk-load": dict(nodes=6_000, sample_edges=1_500, test_size=200),
        "reference-analyze": dict(
            nodes=3_000, sample_edges=2_000, test_size=300, min_community=11
        ),
    },
}

WALKERS = 200
KCORE_K = 3
TOP_N = 50
MIN_USER_FRAC = 0.05
# Default oracle budgets (build_simulated_oracle), replayed by the budget check.
FRIENDS_BUDGET = (15, 900.0)
PROFILES_BUDGET = (900, 900.0)

STOPWORDS = "the and of to a in is it for on with at".split()
# Shared chatter plus stop-words: every block uses them alike.
VOCABULARY = STOPWORDS + (
    "morning coffee weekend news today great thanks love game music photo video "
    "share happy week time people world live team city food travel night"
).split()


def import_rankwalk():
    """Import the package from this checkout's ``src``; refuse any other copy."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {PACKAGE} not found; run from a rankwalk checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import rankwalk

    if Path(rankwalk.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported rankwalk from {rankwalk.__file__}, not {PACKAGE}")


import_rankwalk()

from rankwalk import communities, evaluation, keywords  # noqa: E402
from rankwalk import sampler as sampler_module  # noqa: E402
from rankwalk.generate import generate_network  # noqa: E402
from rankwalk.graph import (  # noqa: E402
    k_core,
    pagerank,
    read_edge_list,
    read_profiles,
    write_edge_list,
    write_profiles,
)
from rankwalk.oracle import (  # noqa: E402
    NotFoundError,
    ProtectedError,
    assert_budget_safety,
    build_simulated_oracle,
    write_call_log,
)
from rankwalk.reference import UndirectedGraph, rank_degree  # noqa: E402
from rankwalk.rng import substream  # noqa: E402
from rankwalk.sampler import (  # noqa: E402
    SampleGraph,
    SamplerConfig,
    SeedPool,
    read_sample_csv,
    run_sample,
    write_growth_csv,
    write_sample_csv,
    write_stats_json,
)

from tracing import Tracer, instrument  # noqa: E402


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------- set-up


def make_docs(n: int, blocks: int, seed: int) -> list:
    """Two docs per account: its block's planted token, shared chatter with
    stop-words, and a URL. Blocks follow planted_blocks' node ranges."""
    rng = substream(seed, "perfbench/docs")
    size = n // blocks
    docs = []
    for node in range(n):
        token = f"#topic{min(node // size, blocks - 1)}"
        for _ in range(2):
            text = " ".join([token, *rng.choices(VOCABULARY, k=8)])
            ts = 1_600_000_000.0 - rng.uniform(0.0, 365.0) * 86400.0
            docs.append(keywords.Doc(node, ts, f"{text} https://t.example/{rng.getrandbits(32)}"))
    return docs


def setup(workload: str, seed: int, scale: str, directory: Path) -> dict:
    """Generate and write the workload's inputs; time each step."""
    size = SIZES[scale][workload]
    params = dict(GROUND_TRUTH[workload])
    model = params.pop("model")
    directory.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    with tracer.span("setup"):
        with tracer.span("generate.network"):
            graph, profiles = generate_network(model, size["nodes"], seed, **params)
        with tracer.span("graph.write_edges"):
            write_edge_list(graph, directory / "edges.csv")
        if workload == "reference-analyze":
            with tracer.span("keywords.write_docs"):
                docs = make_docs(size["nodes"], params["blocks"], seed)
                keywords.write_docs_jsonl(docs, directory / "docs.jsonl")
                (directory / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n")
        else:
            with tracer.span("graph.write_profiles"):
                write_profiles(profiles, directory / "profiles.jsonl")
    files = {
        p.name: {"bytes": p.stat().st_size, "sha256": sha256(p)}
        for p in sorted(directory.iterdir())
        if p.is_file()
    }
    layers = {name + "_s": tracer.seconds(name) for name in tracer.names() if name != "setup"}
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    return {
        "setup_s": tracer.seconds("setup"),
        "layers": layers,
        "files": files,
        "environment": environment,
    }


# ---------------------------------------------------------------- measured runs


class Checks:
    """Output checks; each is one attempted operation that passes or fails."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})


def top_indeg_recall(graph, sample_nodes) -> float:
    """Share of the ground truth's top-1% in-degree accounts found in the sample."""
    k = max(1, math.ceil(graph.num_nodes() / 100))
    top = sorted(graph.nodes, key=lambda n: (-graph.in_degree(n), n))[:k]
    return sum(1 for n in top if n in sample_nodes) / k


def draw_test_and_baseline(graph, seed: int, test_size: int, influencer: set):
    """Test accounts and size-matched baseline, drawn as the evaluate command does."""
    population = sorted(graph.nodes)
    test_rng = substream(seed, "test-sample")
    test_ids = sorted(
        evaluation.baseline_sample(
            population, min(test_size, len(population)), test_rng.randrange(2**32)
        )
    )
    test = {a: frozenset(graph.successors(a)) for a in test_ids}
    baseline_rng = substream(seed, "baseline-sample")
    baseline = evaluation.baseline_sample(
        population, len(influencer), baseline_rng.randrange(2**32)
    )
    return test, baseline


def check_pagerank(check: Checks, result) -> None:
    total = sum(result.scores.values())
    check(
        "pagerank converges and sums to 1",
        result.converged and abs(total - 1.0) <= 1e-9,
        f"converged={result.converged} sum={total!r} iterations={result.iterations}",
    )


def check_kcore(check: Checks, core, k: int) -> None:
    low = [n for n in core.nodes if core.total_degree(n) < k]
    check(
        f"every {k}-core node has total degree >= {k}",
        core.num_nodes() > 0 and not low,
        f"nodes={core.num_nodes()} below_k={low[:5]}",
    )


def crawl_pipeline(workload, seed, size, directory, out, tracer, check, trace):
    """crawl and bulk-load: load, run_sample, write outputs, then analysis."""
    bulk = workload == "bulk-load"
    result: dict = {}
    with tracer.span("run"):
        with tracer.span("load"):
            with tracer.span("graph.read_edges"):
                graph = read_edge_list(directory / "edges.csv")
            with tracer.span("graph.read_profiles"):
                profiles = read_profiles(directory / "profiles.jsonl")
            with tracer.span("oracle.build"):
                oracle = build_simulated_oracle(graph, profiles)
        result["graph.rss_after_load_mb"] = peak_rss_mb()

        config = SamplerConfig(
            walker_count=WALKERS,
            max_sample_edges=size["sample_edges"],
            rng_seed=seed,
            language_filter_enabled=not bulk,
        )
        seed_pool = SeedPool(sorted(graph.nodes), substream(seed, "seed-pool"))
        remove = None
        if trace:
            remove = instrument(tracer, oracle, sampler_module, (NotFoundError, ProtectedError))
        try:
            with tracer.span("sample"), tracer.span("sampler.run_sample"):
                sample, stats = run_sample(config, oracle, seed_pool, deterministic=True)
        finally:
            if remove is not None:
                remove()

        with tracer.span("write"):
            with tracer.span("sampler.write_outputs"):
                write_sample_csv(sample, out / "sample.csv")
                write_stats_json(stats, out / "stats.json")
                write_growth_csv(stats, out / "growth.csv")
            with tracer.span("oracle.write_call_log"):
                write_call_log(oracle.call_log, out / "call_log.jsonl")

        with tracer.span("analyze"):
            influencer = evaluation.influencer_nodes(sample.graph)
            test, baseline = draw_test_and_baseline(graph, seed, size["test_size"], influencer)
            with tracer.span("evaluation.coverage_report"):
                report = evaluation.coverage_report(test, influencer, baseline)
            if bulk:
                with tracer.span("graph.pagerank"):
                    ranks = pagerank(graph)
                with tracer.span("graph.subgraph"):
                    backbone = sample.graph.subgraph(
                        n for n in sample.graph.nodes if sample.graph.in_degree(n) >= 1
                    )
                with tracer.span("graph.kcore"):
                    core = k_core(backbone, KCORE_K)
            else:
                evaluation.write_coverage_report_csv(report, out / "coverage_report.csv")
                with tracer.span("evaluation.rank_curves"):
                    rank_coverage = evaluation.rank_coverage(test, influencer)
                    rank_reach = evaluation.rank_reach(influencer, test)
                evaluation.write_rank_csv(rank_coverage, out / "rank_coverage.csv")
                evaluation.write_rank_csv(rank_reach, out / "rank_reach.csv")
                as_of = max(
                    [p.created_at for p in profiles.values()]
                    + [p.last_status_at for p in profiles.values() if p.last_status_at is not None]
                )
                activities = [
                    evaluation.activity(profiles[n], as_of)
                    for n in sorted(influencer)
                    if n in profiles and not profiles[n].protected
                ]
                evaluation.write_histogram_csv(
                    evaluation.activity_histogram(activities), out / "activity_hist.csv"
                )
                evaluation.total_reach(influencer, test)

    # Checks and quality figures; not timed.
    bad = [e for e in sample.graph.edges() if not graph.has_edge(*e)]
    check("every sample edge is a ground-truth edge", not bad, f"bad={bad[:5]}")
    dupes = len(stats.walk_log) - len(set(stats.walk_log))
    check("no walked edge appears twice", dupes == 0, f"duplicates={dupes}")
    for endpoint, (calls, window) in (("friends", FRIENDS_BUDGET), ("profiles", PROFILES_BUDGET)):
        try:
            assert_budget_safety(oracle.call_log, endpoint, calls, window)
            check(f"{endpoint} budget holds on the call log", True)
        except AssertionError as exc:
            check(f"{endpoint} budget holds on the call log", False, str(exc))
    read_back, _ = read_sample_csv(out / "sample.csv")
    check(
        "sample.csv rows equal stats.sample_edges, stopped on the edge limit",
        read_back.num_edges() == stats.sample_edges == sample.num_edges()
        and stats.stop_reason == "max_sample_edges",
        f"rows={read_back.num_edges()} stats={stats.sample_edges} stop={stats.stop_reason}",
    )
    if bulk:
        check_pagerank(check, ranks)
        check_kcore(check, core, KCORE_K)

    sample_s = tracer.seconds("sample")
    kedges = stats.sample_edges / 1000.0
    counts = dict(stats.to_dict())
    counts["call_log_records"] = len(oracle.call_log)
    counts["influencer_nodes"] = len(influencer)
    if bulk:
        counts.update(
            core_nodes=core.num_nodes(), core_edges=core.num_edges(),
            pagerank_iterations=ranks.iterations,
        )
        result["graph.pagerank_iterations"] = ranks.iterations
    result.update(
        {
            "sample_edges_per_s": stats.sample_edges / sample_s,
            "top_indeg_recall": top_indeg_recall(graph, influencer),
            "mean_coverage_pct": report.pct_in_influencer.mean,
            "sampler.sim_s_per_kedge": stats.simulated_seconds / kedges,
            "sampler.friends_calls_per_kedge": stats.friends_calls / kedges,
            "sampler.profile_calls_per_kedge": stats.profile_calls / kedges,
            "sampler.jump_rate": stats.jumps / stats.steps,
            "sampler.walk_yield": len(stats.walk_log) / stats.steps,
            "graph.input_mb": sum(p.stat().st_size for p in directory.iterdir()) / 1e6,
        }
    )
    if trace:
        c = tracer.counts
        result["oracle.get_profiles.batch_fill"] = c["oracle.profile_ids_requested"] / (
            stats.profile_calls * oracle.profile_batch
        )
        result["sampler.profile_cache_hit_ratio"] = 1.0 - (
            c["oracle.profile_ids_requested"] / c["oracle.friend_ids_served"]
        )
        result["sampler.self_s"] = tracer.seconds("sampler.run_sample") - sum(
            c[name + ".busy_s"]
            for name in (
                "oracle.get_friends",
                "oracle.get_profiles",
                "oracle.follows",
                "sampler.select_target",
            )
        )
    digests = {"sample.csv": sha256(out / "sample.csv")}
    return result, counts, digests


def reference_pipeline(workload, seed, size, directory, out, tracer, check, trace):
    """reference-analyze: rank_degree on the undirected ground truth, then the
    evaluation, k-core, PageRank, communities and keywords chain."""
    result: dict = {}
    with tracer.span("run"):
        with tracer.span("load"):
            with tracer.span("graph.read_edges"):
                directed = read_edge_list(directory / "edges.csv")
            with tracer.span("keywords.read_docs"):
                docs = keywords.read_docs_jsonl(directory / "docs.jsonl")
                stopwords = keywords.read_stopwords(directory / "stopwords.txt")
        result["graph.rss_after_load_mb"] = peak_rss_mb()

        with tracer.span("sample"):
            with tracer.span("reference.from_directed"):
                undirected = UndirectedGraph.from_directed(directed)
            pool = sorted(undirected.nodes)
            rng = substream(seed, "reference-seeds")
            initial = [pool[rng.randrange(len(pool))]]
            with tracer.span("reference.rank_degree"):
                ref = rank_degree(
                    undirected, initial, size["sample_edges"], rho=1.0, rng_seed=seed, collapse=True
                )

        with tracer.span("write"):
            sample = SampleGraph()
            for w, v in ref.walked:
                sample.add_edge(w, v, "walked")
                sample.add_edge(v, w, "symmetric")
            write_sample_csv(sample, out / "reference_sample.csv")

        with tracer.span("analyze"):
            influencer = evaluation.influencer_nodes(sample.graph)
            test, baseline = draw_test_and_baseline(directed, seed, size["test_size"], influencer)
            with tracer.span("evaluation.coverage_report"):
                report = evaluation.coverage_report(test, influencer, baseline)
            evaluation.write_coverage_report_csv(report, out / "coverage_report.csv")
            with tracer.span("evaluation.rank_curves"):
                rank_coverage = evaluation.rank_coverage(test, influencer)
                rank_reach = evaluation.rank_reach(influencer, test)
            evaluation.write_rank_csv(rank_coverage, out / "rank_coverage.csv")
            evaluation.write_rank_csv(rank_reach, out / "rank_reach.csv")

            with tracer.span("graph.subgraph"):
                backbone = sample.graph.subgraph(
                    n for n in sample.graph.nodes if sample.graph.in_degree(n) >= 1
                )
            with tracer.span("graph.kcore"):
                core = k_core(backbone, KCORE_K)
            with tracer.span("graph.pagerank"):
                ranks = pagerank(core)
            with tracer.span("communities.label_propagation"):
                assignment = communities.label_propagation(core, rng_seed=seed)
            with tracer.span("communities.community_graph"):
                meta = communities.community_graph(core, assignment, min_size=size["min_community"])
            communities.write_community_graph_csv(meta, out / "community_graph.csv")

            with tracer.span("keywords.tokenize"):
                token_docs = {d.node: d for d in keywords.tokenize_docs(docs, stopwords)}
            sizes = communities.community_sizes(assignment)
            analyzed = [c for c, s in sizes.items() if s >= size["min_community"]]
            with tracer.span("keywords.extract"):
                found = keywords.keywords_by_community(
                    token_docs, assignment, communities=analyzed, top_n=TOP_N,
                    min_user_frac=MIN_USER_FRAC,
                )
            keywords.write_keywords_csv(found, out / "keywords.csv")

    check(
        "rank_degree reaches its target",
        ref.reached_target and len(ref.edges) >= size["sample_edges"],
        f"edges={len(ref.edges)}",
    )
    walked = [frozenset(e) for e in ref.walked]
    dupes = len(walked) - len(set(walked))
    check("no walked edge appears twice", dupes == 0, f"duplicates={dupes}")
    bad = [e for e in ref.walked if not (directed.has_edge(*e) or directed.has_edge(*e[::-1]))]
    check("every sample edge is a ground-truth edge", not bad, f"bad={bad[:5]}")
    check_pagerank(check, ranks)
    check_kcore(check, core, KCORE_K)
    rows = [e for r in found for e in r.entries]
    check(
        "keyword rows respect top_n and min_user_frac",
        bool(found)
        and all(len(r.entries) <= TOP_N for r in found)
        and all(e.user_fraction >= MIN_USER_FRAC for e in rows),
        f"communities={len(found)} rows={len(rows)}",
    )

    counts = {
        "reference_edges": len(ref.edges),
        "sample_nodes": sample.num_nodes(),
        "influencer_nodes": len(influencer),
        "core_nodes": core.num_nodes(),
        "core_edges": core.num_edges(),
        "pagerank_iterations": ranks.iterations,
        "communities": len(sizes),
        "meta_communities": len(meta.sizes),
        "keyword_rows": len(rows),
    }
    result.update(
        {
            "sample_edges_per_s": len(ref.edges) / tracer.seconds("sample"),
            "top_indeg_recall": top_indeg_recall(directed, influencer),
            "mean_coverage_pct": report.pct_in_influencer.mean,
            "graph.pagerank_iterations": ranks.iterations,
            "graph.input_mb": sum(p.stat().st_size for p in directory.iterdir()) / 1e6,
        }
    )
    digests = {
        "reference_sample.csv": sha256(out / "reference_sample.csv"),
        "keywords.csv": sha256(out / "keywords.csv"),
    }
    return result, counts, digests


def measure(workload: str, seed: int, scale: str, directory: Path, out: Path, trace: bool) -> dict:
    size = SIZES[scale][workload]
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    check = Checks()
    pipeline = reference_pipeline if workload == "reference-analyze" else crawl_pipeline
    values, counts, digests = pipeline(workload, seed, size, directory, out, tracer, check, trace)
    # Stage spans give load_s, sample_s, analyze_s; layer spans give e.g. graph.kcore_s.
    values.update({name + "_s": tracer.seconds(name) for name in tracer.names()})
    values.update(tracer.counts, wall_s=tracer.seconds("run"), peak_rss_mb=peak_rss_mb())
    record = {"values": values, "counts": counts, "digests": digests, "checks": check.results}
    if trace:
        record["spans"] = tracer.spans
    return record


def main(argv: list[str]) -> int:
    role, workload, seed, scale, directory = argv[:5]
    if scale not in SIZES or workload not in SIZES[scale]:
        raise SystemExit(f"perfbench: unknown workload {workload!r} or scale {scale!r}")
    if role == "setup":
        record = setup(workload, int(seed), scale, Path(directory))
    elif role == "measure":
        record = measure(workload, int(seed), scale, Path(directory), Path(argv[5]), argv[6] == "1")
    else:
        raise SystemExit(f"perfbench: unknown role {role!r}")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    status = main(sys.argv[1:])
    # Skip freeing a few hundred MB of graph objects one by one at exit: it
    # is not part of any metric and would only make each run slower.
    os._exit(status)
