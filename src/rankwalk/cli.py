"""Command-line entry point wiring generation, sampling, evaluation, and the
community/keyword pipeline into reproducible file-based workflows."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import communities as communities_mod
from . import evaluation as evaluation_mod
from . import keywords as keywords_mod
from .generate import generate_network
from .graph import (
    _read_lines,
    k_core,
    pagerank,
    parse_id,
    read_edge_list,
    read_profiles,
    write_edge_list,
    write_profiles,
)
from .oracle import build_simulated_oracle, write_call_log
from .reference import UndirectedGraph, rank_degree
from .rng import substream
from .sampler import (
    SamplerConfig,
    SampleGraph,
    SeedPool,
    load_run_state,
    read_sample_csv,
    run_sample,
    save_run_state,
    write_growth_csv,
    write_sample_csv,
    write_stats_json,
)


@dataclass
class RunConfig:
    """Flat, JSON-serializable sampling-run parameters: a run is reproducible
    from this plus the input files alone."""

    target_language: str = "de"
    language_filter_enabled: bool = True
    filter_seed_pool_language: bool = False
    add_symmetric_edge: bool = True
    page_size: int = 5000
    walker_count: int = 200
    max_sample_nodes: int | None = None
    max_sample_edges: int | None = None
    max_simulated_seconds: float | None = None
    max_steps: int | None = None
    rng_seed: int = 0
    key_count: int = 12
    friends_calls_per_window: int = 15
    friends_window_seconds: float = 900.0
    profile_calls_per_window: int = 900
    profile_window_seconds: float = 900.0
    profile_batch: int = 100
    rate_limits_enabled: bool = True

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {unknown}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            target_language=self.target_language,
            walker_count=self.walker_count,
            max_sample_nodes=self.max_sample_nodes,
            max_sample_edges=self.max_sample_edges,
            max_simulated_seconds=self.max_simulated_seconds,
            max_steps=self.max_steps,
            rng_seed=self.rng_seed,
            language_filter_enabled=self.language_filter_enabled,
            add_symmetric_edge=self.add_symmetric_edge,
        )


def _read_graph_any(path):
    """Edge-list CSV with or without the sample provenance column."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header == "source,target,provenance":
        graph, _ = read_sample_csv(path)
        return graph
    return read_edge_list(path)


def _read_seed_pool_file(path) -> list[int]:
    ids: list[int] = []
    _read_lines(path, lambda line: ids.append(parse_id(line)))
    return ids


def cmd_generate(args, out_dir: Path, seed: int) -> int:
    graph, profiles = generate_network(
        args.model,
        args.nodes,
        seed,
        m=args.m,
        p=args.p,
        factor=args.factor,
        high_fraction=args.high_fraction,
        blocks=args.blocks,
        cross_fraction=args.cross_fraction,
        target_language=args.target_language,
        language_fraction=args.language_fraction,
        protected_fraction=args.protected_fraction,
        follower_noise=args.follower_noise,
    )
    write_edge_list(graph, out_dir / args.out_graph)
    write_profiles(profiles, out_dir / args.out_profiles)
    print(f"generated {graph.num_nodes()} nodes, {graph.num_edges()} edges ({args.model})")
    return 0


def cmd_sample(args, out_dir: Path, seed: int, config: RunConfig) -> int:
    config.rng_seed = seed
    for name in (
        "max_sample_nodes",
        "max_sample_edges",
        "max_simulated_seconds",
        "max_steps",
        "walker_count",
        "page_size",
        "target_language",
    ):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    if args.no_language_filter:
        config.language_filter_enabled = False
    graph = read_edge_list(args.graph)
    profiles = read_profiles(args.profiles)
    oracle = build_simulated_oracle(
        graph,
        profiles,
        key_count=config.key_count,
        friends_calls_per_window=config.friends_calls_per_window,
        friends_window_seconds=config.friends_window_seconds,
        profile_calls_per_window=config.profile_calls_per_window,
        profile_window_seconds=config.profile_window_seconds,
        page_size=config.page_size,
        profile_batch=config.profile_batch,
        rate_limits_enabled=config.rate_limits_enabled,
    )
    if args.seed_pool:
        pool_ids = _read_seed_pool_file(args.seed_pool)
    else:
        pool_ids = sorted(graph.nodes)
    if config.filter_seed_pool_language:
        unknown = [n for n in pool_ids if n not in profiles]
        if unknown:
            raise ValueError(f"{args.seed_pool}: seed id {unknown[0]} has no profile")
        pool_ids = [n for n in pool_ids if profiles[n].language == config.target_language]
    seed_pool = SeedPool(pool_ids, substream(seed, "seed-pool"))
    resume = load_run_state(args.resume_from) if args.resume_from else None
    sample, stats = run_sample(config.sampler_config(), oracle, seed_pool, resume=resume)
    write_sample_csv(sample, out_dir / args.out_sample)
    write_stats_json(stats, out_dir / args.out_stats)
    write_growth_csv(stats, out_dir / args.out_growth)
    write_call_log(oracle.call_log, out_dir / args.out_call_log)
    if args.resume_to:
        save_run_state(
            out_dir / args.resume_to,
            sample,
            stats.burn_store,
            stats.final_walkers,
            oracle.clock.now,
            seed_pool,
        )
    print(
        f"sampled {stats.sample_edges} edges / {stats.sample_nodes} nodes "
        f"in {stats.steps} steps ({stats.stop_reason})"
    )
    return 0


def _parse_seed_ids(text: str) -> list[int]:
    ids = []
    for part in text.split(","):
        try:
            ids.append(parse_id(part))
        except ValueError:
            raise ValueError(
                f"--seeds: expected comma-separated integer ids, got {part!r}"
            ) from None
    return ids


def cmd_reference(args, out_dir: Path, seed: int) -> int:
    if args.num_seeds < 1:
        raise ValueError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    initial = _parse_seed_ids(args.seeds) if args.seeds else None
    directed = _read_graph_any(args.graph)
    graph = UndirectedGraph.from_directed(directed)
    if initial is None:
        pool = sorted(graph.nodes)
        rng = substream(seed, "reference-seeds")
        initial = [pool[rng.randrange(len(pool))] for _ in range(args.num_seeds)]
    result = rank_degree(
        graph,
        initial,
        args.sample_size,
        rho=args.rho,
        rng_seed=seed,
        collapse=not args.no_collapse,
    )
    sample = SampleGraph()
    for w, v in result.walked:
        sample.add_edge(w, v, "walked")
        sample.add_edge(v, w, "symmetric")
    write_sample_csv(sample, out_dir / args.out_sample)
    flag = "" if result.reached_target else " (graph exhausted early)"
    print(f"reference sample: {len(result.edges)} directed edges{flag}")
    return 0


def cmd_evaluate(args, out_dir: Path, seed: int) -> int:
    sample_graph, _ = read_sample_csv(args.sample)
    graph = read_edge_list(args.graph)
    profiles = read_profiles(args.profiles)
    influencer = evaluation_mod.influencer_nodes(sample_graph)
    if not influencer:
        raise ValueError("influencer sample is empty (no sampled node has in-degree >= 1)")
    population = sorted(
        n
        for n in graph.nodes
        if args.language is None or profiles[n].language == args.language
    )
    test_rng = substream(seed, "test-sample")
    test_ids = sorted(
        evaluation_mod.baseline_sample(
            population, min(args.test_size, len(population)), test_rng.randrange(2**32)
        )
    )
    test = {a: frozenset(graph.successors(a)) for a in test_ids}
    baseline_rng = substream(seed, "baseline-sample")
    baseline = evaluation_mod.baseline_sample(
        population, len(influencer), baseline_rng.randrange(2**32)
    )
    report = evaluation_mod.coverage_report(
        test, influencer, baseline, include_all=args.include_all
    )
    evaluation_mod.write_coverage_report_csv(report, out_dir / args.out_report)
    min_friends = 1 if args.include_all else 2
    evaluation_mod.write_rank_csv(
        evaluation_mod.rank_coverage(test, influencer, min_friends=min_friends),
        out_dir / args.out_rank_coverage,
    )
    evaluation_mod.write_rank_csv(
        evaluation_mod.rank_reach(influencer, test), out_dir / args.out_rank_reach
    )
    as_of = args.as_of
    if as_of is None:
        as_of = max(
            [p.created_at for p in profiles.values()]
            + [p.last_status_at for p in profiles.values() if p.last_status_at is not None]
        )
    activities = [
        evaluation_mod.activity(profiles[n], as_of)
        for n in sorted(influencer)
        if n in profiles and not profiles[n].protected
    ]
    evaluation_mod.write_histogram_csv(
        evaluation_mod.activity_histogram(activities), out_dir / args.out_activity
    )
    total = evaluation_mod.total_reach(influencer, test, min_friends=min_friends)
    print(
        f"influencer sample: {len(influencer)} nodes, n={report.n} test accounts, "
        f"mean coverage {report.pct_in_influencer.mean:.1f}%, total reach {total:.1f}%"
    )
    return 0


def cmd_kcore(args, out_dir: Path) -> int:
    graph = _read_graph_any(args.graph)
    if args.min_in_degree > 0:
        graph = graph.subgraph(
            n for n in graph.nodes if graph.in_degree(n) >= args.min_in_degree
        )
    core = k_core(graph, args.k)
    write_edge_list(core, out_dir / args.out)
    print(f"{args.k}-core: {core.num_nodes()} nodes, {core.num_edges()} edges")
    return 0


def cmd_pagerank(args, out_dir: Path) -> int:
    graph = _read_graph_any(args.graph)
    result = pagerank(graph, args.damping, args.tolerance, args.max_iters)
    with open(out_dir / args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("node,score\n")
        for node in sorted(result.scores):
            fh.write(f"{node},{result.scores[node]:.12e}\n")
    if not result.converged:
        print(
            f"warning: pagerank did not converge in {args.max_iters} iterations",
            file=sys.stderr,
        )
    print(f"pagerank over {graph.num_nodes()} nodes in {result.iterations} iterations")
    return 0


def cmd_communities(args, out_dir: Path, seed: int) -> int:
    graph = _read_graph_any(args.graph)
    if args.assignment:
        assignment = communities_mod.load_assignment(args.assignment, graph)
    else:
        assignment = communities_mod.label_propagation(graph, rng_seed=seed, max_iters=args.max_iters)
    communities_mod.write_assignment(assignment, out_dir / args.out_assignment)
    sizes = communities_mod.community_sizes(assignment)
    communities_mod.write_community_sizes_csv(sizes, out_dir / args.out_sizes)
    meta = communities_mod.community_graph(graph, assignment, args.min_size, args.min_weight)
    communities_mod.write_community_graph_csv(meta, out_dir / args.out_meta)
    print(
        f"{len(sizes)} communities; {len(meta.sizes)} of size >= {args.min_size}, "
        f"{len(meta.weights)} meta edges"
    )
    return 0


def cmd_keywords(args, out_dir: Path) -> int:
    docs = keywords_mod.read_docs_jsonl(args.docs)
    stopwords = keywords_mod.read_stopwords(args.stopwords) if args.stopwords else set()
    assignment = communities_mod.load_assignment(args.assignment)
    if args.window_start is not None or args.window_end is not None:
        t0 = args.window_start if args.window_start is not None else min(d.ts for d in docs)
        t1 = args.window_end if args.window_end is not None else max(d.ts for d in docs)
        docs = keywords_mod.window_docs(docs, t0, t1, per_node_cap=args.per_node_cap)
    elif args.per_node_cap is not None:
        docs = keywords_mod.window_docs(
            docs,
            min(d.ts for d in docs),
            max(d.ts for d in docs),
            per_node_cap=args.per_node_cap,
        )
    token_docs = {d.node: d for d in keywords_mod.tokenize_docs(docs, stopwords)}
    sizes = communities_mod.community_sizes(assignment)
    analyzed = [c for c, size in sizes.items() if size >= args.min_size]
    results = keywords_mod.keywords_by_community(
        token_docs,
        assignment,
        communities=analyzed,
        top_n=args.top_n,
        min_user_frac=args.min_user_frac,
    )
    keywords_mod.write_keywords_csv(results, out_dir / args.out)
    print(f"extracted keywords for {len(results)} communities")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankwalk",
        description="Follow-network sampling under simulated API rate limits, "
        "plus sample evaluation and community/keyword analysis.",
    )
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--seed", type=int, help="master RNG seed (overrides config)")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective run config as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="synthesize a ground-truth graph plus profiles")
    g.add_argument("--model", required=True,
                   choices=("preferential-attachment", "reciprocal-er", "two-class",
                            "planted-blocks"))
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--m", type=int, default=3, help="edges per new node (preferential-attachment)")
    g.add_argument("--p", type=float, default=0.05, help="edge probability (reciprocal-er, two-class)")
    g.add_argument("--factor", type=float, default=50.0, help="two-class in-degree factor")
    g.add_argument("--high-fraction", type=float, default=0.01)
    g.add_argument("--blocks", type=int, default=2, help="block count (planted-blocks)")
    g.add_argument("--cross-fraction", type=float, default=0.02,
                   help="per-node reciprocal cross-block link probability (planted-blocks)")
    g.add_argument("--target-language", default="de")
    g.add_argument("--language-fraction", type=float, default=1.0)
    g.add_argument("--protected-fraction", type=float, default=0.0)
    g.add_argument("--follower-noise", type=float, default=0.0)
    g.add_argument("--out-graph", default="edges.csv")
    g.add_argument("--out-profiles", default="profiles.jsonl")

    s = sub.add_parser("sample", help="run the rate-limited walker sampler")
    s.add_argument("--graph", required=True)
    s.add_argument("--profiles", required=True)
    s.add_argument("--seed-pool", help="file with one seed id per line (default: all nodes)")
    s.add_argument("--walker-count", dest="walker_count", type=int)
    s.add_argument("--page-size", dest="page_size", type=int)
    s.add_argument("--target-language", dest="target_language")
    s.add_argument("--no-language-filter", action="store_true")
    s.add_argument("--max-sample-nodes", dest="max_sample_nodes", type=int)
    s.add_argument("--max-sample-edges", dest="max_sample_edges", type=int)
    s.add_argument("--max-simulated-seconds", dest="max_simulated_seconds", type=float)
    s.add_argument("--max-steps", dest="max_steps", type=int)
    s.add_argument("--resume-from", help="resume file from an interrupted run")
    s.add_argument("--resume-to", help="write a resume file at the end of this run")
    s.add_argument("--out-sample", default="sample.csv")
    s.add_argument("--out-stats", default="stats.json")
    s.add_argument("--out-growth", default="growth.csv")
    s.add_argument("--out-call-log", default="call_log.jsonl")

    r = sub.add_parser("reference", help="full-knowledge rank-degree baseline sampler")
    r.add_argument("--graph", required=True, help="edge list; every edge is read as undirected")
    r.add_argument("--seeds", help="comma-separated initial seed ids")
    r.add_argument("--num-seeds", type=int, default=1)
    r.add_argument("--sample-size", type=int, required=True, help="directed edge count target")
    r.add_argument("--rho", type=float, default=1.0)
    r.add_argument("--no-collapse", action="store_true")
    r.add_argument("--out-sample", default="reference_sample.csv")

    e = sub.add_parser("evaluate", help="coverage/reach/activity reports for a sample")
    e.add_argument("--sample", required=True)
    e.add_argument("--graph", required=True)
    e.add_argument("--profiles", required=True)
    e.add_argument("--test-size", type=int, default=1000)
    e.add_argument("--language", help="restrict the test/baseline population to this language")
    e.add_argument("--include-all", action="store_true",
                   help="keep test accounts with a single friend (drops the >=2 exclusion)")
    e.add_argument("--as-of", type=float, help="activity reference timestamp")
    e.add_argument("--out-report", default="coverage_report.csv")
    e.add_argument("--out-rank-coverage", default="rank_coverage.csv")
    e.add_argument("--out-rank-reach", default="rank_reach.csv")
    e.add_argument("--out-activity", default="activity_hist.csv")

    k = sub.add_parser("kcore", help="k-core of an edge list or sample")
    k.add_argument("--graph", required=True)
    k.add_argument("--k", type=int, required=True)
    k.add_argument("--min-in-degree", type=int, default=0,
                   help="drop nodes below this in-degree before coring")
    k.add_argument("--out", default="kcore.csv")

    p = sub.add_parser("pagerank", help="PageRank scores of an edge list or sample")
    p.add_argument("--graph", required=True)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--out", default="pagerank.csv")

    c = sub.add_parser("communities", help="community assignment and meta-graph")
    c.add_argument("--graph", required=True)
    c.add_argument("--assignment", help="ingest an external node,community CSV instead "
                                        "of running label propagation")
    c.add_argument("--max-iters", type=int, default=100)
    c.add_argument("--min-size", type=int, default=100)
    c.add_argument("--min-weight", type=int, default=0)
    c.add_argument("--out-assignment", default="assignment.csv")
    c.add_argument("--out-sizes", default="community_sizes.csv")
    c.add_argument("--out-meta", default="community_graph.csv")

    w = sub.add_parser("keywords", help="chi-squared keywords per community")
    w.add_argument("--docs", required=True, help="JSONL with node, ts, text per line")
    w.add_argument("--assignment", required=True)
    w.add_argument("--stopwords", help="file with one stop-word per line")
    w.add_argument("--top-n", type=int, default=50)
    w.add_argument("--min-user-frac", type=float, default=0.05)
    w.add_argument("--min-size", type=int, default=1,
                   help="only analyze communities with at least this many accounts")
    w.add_argument("--window-start", type=float)
    w.add_argument("--window-end", type=float)
    w.add_argument("--per-node-cap", type=int)
    w.add_argument("--out", default="keywords.csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        config = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            config.rng_seed = args.seed
        if args.print_config:
            print(config.to_json())
            return 0
        if args.command is None:
            parser.print_help()
            return 2
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = config.rng_seed

        if args.command == "generate":
            return cmd_generate(args, out_dir, seed)
        if args.command == "sample":
            return cmd_sample(args, out_dir, seed, config)
        if args.command == "reference":
            return cmd_reference(args, out_dir, seed)
        if args.command == "evaluate":
            return cmd_evaluate(args, out_dir, seed)
        if args.command == "kcore":
            return cmd_kcore(args, out_dir)
        if args.command == "pagerank":
            return cmd_pagerank(args, out_dir)
        if args.command == "communities":
            return cmd_communities(args, out_dir, seed)
        if args.command == "keywords":
            return cmd_keywords(args, out_dir)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
