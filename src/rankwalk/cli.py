"""Command-line entry point wiring generation, sampling, evaluation, and the
community/keyword pipeline into reproducible file-based workflows."""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from itertools import compress
from pathlib import Path

import numpy as np

from . import communities as communities_mod
from . import evaluation as evaluation_mod
from . import keywords as keywords_mod
from .generate import build_profiles, generate_network
from .graph import (
    _ID_TEXT,
    UndirectedGraph,
    _check_fields,
    _open_text,
    _read_lines,
    k_core,
    pagerank,
    parse_id,
    read_edge_list,
    read_profiles,
    write_edge_list,
    write_profiles,
)
from .oracle import ApiBudget, SimulatedOracle, write_call_log
from .reference import rank_degree
from .rng import substream
from .sampler import (
    SAMPLE_HEADER,
    SYMMETRIC,
    WALKED,
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


def _json_types(hint) -> tuple[type, ...]:
    """The JSON value types a field typed `hint` takes: a float field takes an
    integer too, and a JSON boolean never passes for an int."""
    return tuple(
        t for h in typing.get_args(hint) or (hint,) for t in ((int, float) if h is float else (h,))
    )


def _declared_fields():
    """(name, JSON types, default) of every run-config field the sampler and the
    API budget declare, less the test-only original_rank_degree."""
    for cls in (SamplerConfig, ApiBudget):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if field.name != "original_rank_degree":
                yield field.name, _json_types(hints[field.name]), field.default


# The CLI's one field of its own, then SamplerConfig's and ApiBudget's.
_FIELDS = [("filter_seed_pool_language", (bool,), False), *_declared_fields()]
RUN_CONFIG_FIELDS: dict[str, tuple[type, ...]] = {name: types for name, types, _ in _FIELDS}
RUN_CONFIG_DEFAULTS: dict[str, object] = {name: default for name, _, default in _FIELDS}


def read_run_config(path) -> dict:
    """A JSON object holding any run-config fields, each of a JSON type that
    RUN_CONFIG_FIELDS allows for it; anything else raises ValueError naming
    the file."""
    with _open_text(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if type(data) is not dict:
        raise ValueError(f"{path}: expected a JSON object, got {data!r:.80}")
    unknown = sorted(set(data) - RUN_CONFIG_FIELDS.keys())
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    try:
        _check_fields(data, {name: RUN_CONFIG_FIELDS[name] for name in data})
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return data


def _given(args, *functions) -> dict:
    """The options given on the command line whose dest is a parameter with a
    default of one of `functions`, as keywords. An option left out is None,
    so the function's own default holds."""
    names = {
        name
        for function in functions
        for name, param in inspect.signature(function).parameters.items()
        if param.default is not param.empty
    }
    return {name: value for name, value in vars(args).items() if name in names and value is not None}


def _name_the_source(exc: Exception, args, config: dict) -> Exception:
    """A range error `<name> must ...`, reworded to name the option of this
    command line that set `name` (`--name ...`) or else the config file that
    did (`<path>: name must ...`); any other error as it is."""
    name, _, rest = str(exc).partition(" ")
    if not rest.startswith("must "):
        return exc
    if getattr(args, name, None) is not None:
        return ValueError(f"--{name.replace('_', '-')} {rest}")
    if name in config:
        return ValueError(f"{args.config}: {exc}")
    return exc


def _read_graph_any(path):
    """Edge-list CSV with or without the sample provenance column."""
    with _open_text(path) as fh:
        header = fh.readline().strip()
    if header == SAMPLE_HEADER:
        graph, _ = read_sample_csv(path)
        return graph
    return read_edge_list(path)


def _read_seed_pool_file(path) -> list[int]:
    ids: list[int] = []
    _read_lines(path, lambda line: ids.append(parse_id(line)))
    if not ids:
        raise ValueError(f"{path}: holds no account ids")
    return ids


def cmd_generate(args, out_dir: Path, seed: int) -> int:
    graph, profiles = generate_network(
        args.model, args.nodes, seed, **_given(args, generate_network, build_profiles)
    )
    write_edge_list(graph, out_dir / args.out_graph)
    write_profiles(profiles, out_dir / args.out_profiles)
    print(f"generated {graph.num_nodes()} nodes, {graph.num_edges()} edges ({args.model})")
    return 0


def cmd_sample(args, out_dir: Path, seed: int, config: dict) -> int:
    """`config` holds the fields the config file set; a flag wins over it."""
    settings = {**RUN_CONFIG_DEFAULTS, **config, **_given(args, SamplerConfig, ApiBudget)}
    sampler_config, budget = (
        cls(**{f.name: settings[f.name] for f in dataclasses.fields(cls) if f.name in settings})
        for cls in (SamplerConfig, ApiBudget)
    )
    profiles = read_profiles(args.profiles)
    oracle = SimulatedOracle(profiles, budget)
    if args.seed_pool:
        pool_ids = _read_seed_pool_file(args.seed_pool)
    else:
        pool_ids = profiles.ids.tolist()
    if settings["filter_seed_pool_language"]:
        rows = profiles.rows(np.array(pool_ids, np.int64))
        unknown = np.flatnonzero(rows == len(profiles))
        if unknown.size:
            raise ValueError(f"{args.seed_pool}: seed id {pool_ids[unknown[0]]} has no profile")
        language = sampler_config.target_language
        pool_ids = list(compress(pool_ids, profiles.has_language(language)[rows].tolist()))
        if not pool_ids:
            # the filter is on only through a config file
            raise ValueError(
                f"{args.config}: filter_seed_pool_language: no seed-pool account has "
                f"target_language {language!r}"
            )
    seed_pool = SeedPool(pool_ids, substream(seed, "seed-pool"))
    resume = None
    if args.resume_from:
        resume = load_run_state(args.resume_from)
        window = min(budget.friends_window_seconds, budget.profile_window_seconds)
        # a clock so large that adding the window leaves it unchanged never frees a spent key
        if budget.rate_limits_enabled and not resume.clock_now + window > resume.clock_now:
            raise ValueError(
                f"{args.resume_from}: clock_now {resume.clock_now!r} is too large to add "
                f"a {window!r} s rate window to"
            )
        keys = [key for _, key, _ in resume.charges]
        if budget.rate_limits_enabled and keys and max(keys) >= budget.key_count:
            raise ValueError(
                f"{args.resume_from}: charges of key {max(keys)}, but key_count is "
                f"{budget.key_count}"
            )
        walker_count = sampler_config.walker_count
        given = args.walker_count is not None or "walker_count" in config
        if given and len(resume.walkers) != walker_count:
            raise ValueError(
                f"{args.resume_from}: holds {len(resume.walkers)} walkers, but walker_count is "
                f"{walker_count}"
            )
    sample, stats = run_sample(sampler_config, oracle, seed_pool, resume=resume)
    write_sample_csv(sample, out_dir / args.out_sample)
    write_stats_json(stats, out_dir / args.out_stats)
    write_growth_csv(stats, out_dir / args.out_growth)
    write_call_log(oracle.call_log, out_dir / args.out_call_log)
    if args.resume_to:
        save_run_state(
            out_dir / args.resume_to, sample, stats.final_walkers, oracle.clock.now, seed_pool,
            oracle.window_charges(),
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
        except ValueError as exc:
            if _ID_TEXT.fullmatch(part):  # an integer, but not an account id
                raise ValueError(f"--seeds: {exc}") from None
            raise ValueError(
                f"--seeds: expected comma-separated integer ids, got {part!r}"
            ) from None
    return ids


def cmd_reference(args, out_dir: Path, seed: int) -> int:
    if args.num_seeds < 1:
        raise ValueError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    initial = _parse_seed_ids(args.seeds) if args.seeds else None
    directed = _read_graph_any(args.graph)
    if not directed.num_edges():
        raise ValueError(f"{args.graph}: graph has no edges")
    graph = UndirectedGraph.from_directed(directed)
    if initial is None:
        pool = graph.ids
        rng = substream(seed, "reference-seeds")
        initial = [pool[rng.randrange(len(pool))] for _ in range(args.num_seeds)]
    result = rank_degree(
        graph,
        initial,
        args.sample_size,
        rng_seed=seed,
        collapse=not args.no_collapse,
        **_given(args, rank_degree),
    )
    sample = SampleGraph()
    for w, v in result.walked:
        sample.add_edge(w, v, WALKED)
        sample.add_edge(v, w, SYMMETRIC)
    write_sample_csv(sample, out_dir / args.out_sample)
    flag = "" if result.reached_target else " (graph exhausted early)"
    print(f"reference sample: {2 * len(result.walked)} directed edges{flag}")
    return 0


def cmd_evaluate(args, out_dir: Path, seed: int) -> int:
    if args.test_size < 1:
        raise ValueError(f"--test-size must be >= 1, got {args.test_size}")
    sample_graph, _ = read_sample_csv(args.sample)
    profiles = read_profiles(args.profiles)
    influencer = evaluation_mod.influencer_nodes(sample_graph)
    if not influencer:
        raise ValueError("influencer sample is empty (no sampled node has in-degree >= 1)")
    population = profiles.ids.tolist()
    if args.language is not None:
        population = list(compress(population, profiles.has_language(args.language).tolist()))
        if not population:
            raise ValueError(f"{args.profiles}: no account has --language {args.language!r}")
    test_rng = substream(seed, "test-sample")
    test_ids = sorted(
        evaluation_mod.baseline_sample(
            population, min(args.test_size, len(population)), test_rng.randrange(2**32)
        )
    )
    test = {a: frozenset(profiles[a].friends_recent_first) for a in test_ids}
    baseline_rng = substream(seed, "baseline-sample")
    baseline = evaluation_mod.baseline_sample(
        population, len(influencer), baseline_rng.randrange(2**32)
    )
    as_of = args.as_of
    if as_of is None:
        known = profiles.last_status_at[~np.isnan(profiles.last_status_at)]
        as_of = np.concatenate([profiles.created_at, known]).max().item()
    activities = [
        evaluation_mod.activity(profiles[n], as_of)
        for n in sorted(influencer)
        if n in profiles and not profiles[n].protected
    ]
    min_friends = 1 if args.include_all else 2
    report = evaluation_mod.coverage_report(test, influencer, baseline, min_friends=min_friends)
    evaluation_mod.write_coverage_report_csv(report, out_dir / args.out_report)
    evaluation_mod.write_rank_csv(
        evaluation_mod.rank_coverage(test, influencer, min_friends=min_friends),
        out_dir / args.out_rank_coverage,
    )
    evaluation_mod.write_rank_csv(
        evaluation_mod.rank_reach(influencer, test), out_dir / args.out_rank_reach
    )
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
    if args.min_in_degree < 0:
        raise ValueError(f"--min-in-degree must be >= 0, got {args.min_in_degree}")
    graph = _read_graph_any(args.graph)
    if args.min_in_degree > 0:
        graph = graph._induced(graph.in_degrees >= args.min_in_degree)
    core = k_core(graph, args.k)
    write_edge_list(core, out_dir / args.out)
    print(f"{args.k}-core: {core.num_nodes()} nodes, {core.num_edges()} edges")
    return 0


def cmd_pagerank(args, out_dir: Path) -> int:
    graph = _read_graph_any(args.graph)
    result = pagerank(graph, **_given(args, pagerank))
    with open(out_dir / args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("node,score\n")
        for node, score in zip(result.scores, result.scores.values()):
            fh.write(f"{node},{score:.12e}\n")
    if not result.converged:
        print(
            f"warning: pagerank did not converge in {result.iterations} iterations",
            file=sys.stderr,
        )
    print(f"pagerank over {graph.num_nodes()} nodes in {result.iterations} iterations")
    return 0


def cmd_communities(args, out_dir: Path, seed: int) -> int:
    graph = _read_graph_any(args.graph)
    if args.assignment:
        assignment = communities_mod.load_assignment(args.assignment, graph)
    else:
        assignment = communities_mod.label_propagation(
            graph, rng_seed=seed, **_given(args, communities_mod.label_propagation)
        )
    sizes = communities_mod.community_sizes(assignment)
    meta = communities_mod.community_graph(
        graph, assignment, **_given(args, communities_mod.community_graph)
    )
    communities_mod.write_assignment(assignment, out_dir / args.out_assignment)
    communities_mod.write_community_sizes_csv(sizes, out_dir / args.out_sizes)
    communities_mod.write_community_graph_csv(meta, out_dir / args.out_meta)
    print(
        f"{len(sizes)} communities; {len(meta.sizes)} of size >= {meta.min_size}, "
        f"{len(meta.weights)} meta edges"
    )
    return 0


def cmd_keywords(args, out_dir: Path) -> int:
    if args.min_size < 1:
        raise ValueError(f"--min-size must be >= 1, got {args.min_size}")
    docs = keywords_mod.read_docs_jsonl(args.docs)
    stopwords = keywords_mod.read_stopwords(args.stopwords) if args.stopwords else set()
    assignment = communities_mod.load_assignment(args.assignment)
    window = _given(args, keywords_mod.window_docs)
    if window:
        if not docs:
            raise ValueError(f"{args.docs}: holds no documents")
        docs = keywords_mod.window_docs(docs, **window)
    token_docs = {d.node: d for d in keywords_mod.tokenize_docs(docs, stopwords)}
    sizes = communities_mod.community_sizes(assignment)
    analyzed = [c for c, size in sizes.items() if size >= args.min_size]
    results = keywords_mod.keywords_by_community(
        token_docs,
        assignment,
        communities=analyzed,
        **_given(args, keywords_mod.keywords_by_community),
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
    g.add_argument("--m", type=int, help="edges per new node (preferential-attachment)")
    g.add_argument("--p", type=float, help="edge probability (reciprocal-er, two-class)")
    g.add_argument("--factor", type=float, help="two-class in-degree factor")
    g.add_argument("--high-fraction", type=float)
    g.add_argument("--blocks", type=int, help="block count (planted-blocks)")
    g.add_argument("--cross-fraction", type=float,
                   help="per-node reciprocal cross-block link probability (planted-blocks)")
    g.add_argument("--target-language")
    g.add_argument("--language-fraction", type=float)
    g.add_argument("--protected-fraction", type=float)
    g.add_argument("--follower-noise", type=float)
    g.add_argument("--out-graph", default="edges.csv")
    g.add_argument("--out-profiles", default="profiles.jsonl")

    s = sub.add_parser("sample", help="run the rate-limited walker sampler")
    s.add_argument("--profiles", required=True)
    s.add_argument("--seed-pool", help="file with one seed id per line "
                                       "(default: every account in --profiles)")
    s.add_argument("--walker-count", dest="walker_count", type=int)
    s.add_argument("--page-size", dest="page_size", type=int)
    s.add_argument("--target-language", dest="target_language")
    s.add_argument("--no-language-filter", dest="language_filter_enabled",
                   action="store_false", default=None)
    s.add_argument("--max-sample-nodes", dest="max_sample_nodes", type=int)
    s.add_argument("--max-sample-edges", dest="max_sample_edges", type=int)
    s.add_argument("--max-simulated-seconds", dest="max_simulated_seconds", type=float)
    s.add_argument("--max-steps", dest="max_steps", type=int)
    s.add_argument("--resume-from",
                   help="resume file from an interrupted run, read as given (not under --out-dir)")
    s.add_argument("--resume-to",
                   help="write a resume file at the end of this run, under --out-dir")
    s.add_argument("--out-sample", default="sample.csv")
    s.add_argument("--out-stats", default="stats.json")
    s.add_argument("--out-growth", default="growth.csv")
    s.add_argument("--out-call-log", default="call_log.jsonl")

    r = sub.add_parser("reference", help="full-knowledge rank-degree baseline sampler")
    r.add_argument("--graph", required=True, help="edge list; every edge is read as undirected")
    r.add_argument("--seeds", help="comma-separated initial seed ids")
    r.add_argument("--num-seeds", type=int, default=1)
    r.add_argument("--sample-size", type=int, required=True, help="directed edge count target")
    r.add_argument("--rho", type=float)
    r.add_argument("--no-collapse", action="store_true")
    r.add_argument("--out-sample", default="reference_sample.csv")

    e = sub.add_parser("evaluate", help="coverage/reach/activity reports for a sample")
    e.add_argument("--sample", required=True)
    e.add_argument("--profiles", required=True)
    e.add_argument("--test-size", type=int, default=1000)
    e.add_argument("--language", help="restrict the test/baseline population to this language")
    e.add_argument("--include-all", action="store_true", default=None,
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
    p.add_argument("--damping", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", default="pagerank.csv")

    c = sub.add_parser("communities", help="community assignment and meta-graph")
    c.add_argument("--graph", required=True)
    c.add_argument("--assignment", help="ingest an external node,community CSV instead "
                                        "of running label propagation")
    c.add_argument("--max-iters", type=int)
    c.add_argument("--min-size", type=int)
    c.add_argument("--min-weight", type=int)
    c.add_argument("--out-assignment", default="assignment.csv")
    c.add_argument("--out-sizes", default="community_sizes.csv")
    c.add_argument("--out-meta", default="community_graph.csv")

    w = sub.add_parser("keywords", help="chi-squared keywords per community")
    w.add_argument("--docs", required=True, help="JSONL with node, ts, text per line")
    w.add_argument("--assignment", required=True)
    w.add_argument("--stopwords", help="file with one stop-word per line")
    w.add_argument("--top-n", type=int)
    w.add_argument("--min-user-frac", type=float)
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
    config: dict = {}
    try:
        config = read_run_config(args.config) if args.config else {}
        if args.seed is not None:
            config["rng_seed"] = args.seed
        if args.print_config:
            print(json.dumps({**RUN_CONFIG_DEFAULTS, **config}, indent=2, sort_keys=True))
            return 0
        if args.command is None:
            parser.print_help()
            return 2
        out_dir = Path(args.out_dir)
        # Each output file (an --out* option or --resume-to, read under
        # out_dir) gets its directory now, so a bad path fails before the work.
        for name, value in vars(args).items():
            if value and (name in ("out", "resume_to") or name.startswith("out_") and name != "out_dir"):
                (out_dir / value).parent.mkdir(parents=True, exist_ok=True)
        seed = config.get("rng_seed", RUN_CONFIG_DEFAULTS["rng_seed"])

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
        print(f"error: {_name_the_source(exc, args, config)}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
