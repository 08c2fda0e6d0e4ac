"""Command-line interface.

The subcommands cover the common workflows::

    repro index build --scale small --out index_dir/   # corpus -> .store shards
    repro index info index_dir/                        # per-shard report
    repro search index_dir/ canada weather             # query a packed index
    repro compare --scale unit --trace wikipedia       # policy comparison table
    repro figure fig10 --scale small                   # one paper figure/table
    repro paper --scale small --out .                  # every claim -> EXPERIMENTS.small.json
    repro trace --policy cottage --export perfetto     # telemetry-traced run
    repro faults --scale unit                          # fault scenario matrix
    repro serve --scale unit --policy cottage          # open-loop QPS sweep
    repro lint src/repro                               # determinism linter

``python -m repro ...`` works identically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable

from repro.experiments import (
    Scale,
    Testbed,
    beyond,
    fig02_variation,
    fig03_policy_example,
    fig04_frequency,
    fig06_score_distribution,
    fig07_quality_predictor,
    fig08_latency_predictor,
    fig09_budget_example,
    fig10_latency,
    fig11_quality,
    fig12_scatter,
    fig13_active_isns,
    fig14_power,
    fig15_ablation,
    headline,
    scoreboard,
    tables_features,
)
from repro.metrics import comparison_table
from repro.serving.arrivals import ARRIVAL_KINDS

FIGURES: dict[str, object] = {
    "fig02": fig02_variation,
    "fig03": fig03_policy_example,
    "fig04": fig04_frequency,
    "fig06": fig06_score_distribution,
    "fig07": fig07_quality_predictor,
    "fig08": fig08_latency_predictor,
    "fig09": fig09_budget_example,
    "fig10": fig10_latency,
    "fig11": fig11_quality,
    "fig12": fig12_scatter,
    "fig13": fig13_active_isns,
    "fig14": fig14_power,
    "fig15": fig15_ablation,
    "tables": tables_features,
    "headline": headline,
    "beyond": beyond,
}

ALL_POLICIES = (
    "exhaustive", "aggregation", "taily", "rank_s",
    "cottage_without_ml", "cottage_isn", "cottage",
)


SCALES = {"unit": Scale.unit, "small": Scale.small, "full": Scale.full}


def _scale(name: str) -> Scale:
    try:
        return SCALES[name]()
    except KeyError:
        raise SystemExit(f"unknown scale {name!r}; use unit, small or full") from None


def _unknown_policy(names: Iterable[str]) -> bool:
    """Report the first name outside ``ALL_POLICIES`` on stderr, if any."""
    for name in names:
        if name not in ALL_POLICIES:
            print(
                f"unknown policy {name!r}; options: {', '.join(ALL_POLICIES)}",
                file=sys.stderr,
            )
            return True
    return False


def _finite(value: object) -> object:
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _write_json(path: str, payload: object) -> None:
    """Write ``payload`` as strict JSON, which has no inf or NaN.

    A non-finite float (the queueing model's mean latency at or above
    saturation is infinite) is written as ``null``.
    """
    with open(path, "w") as fh:
        json.dump(_finite(payload), fh, indent=2, allow_nan=False)
    print(f"wrote {path}")


def _cmd_index_build(args: argparse.Namespace) -> int:
    """Generate a corpus and pack it straight into ``.store`` shards."""
    from repro.index import build_shards, pack_shards, partition_topical
    from repro.text import WhitespaceAnalyzer
    from repro.workloads import SyntheticCorpus

    scale = _scale(args.scale)
    print(f"generating corpus ({scale.corpus.n_docs} docs)...")
    corpus = SyntheticCorpus(scale.corpus)
    print(f"indexing {scale.n_shards} shards...")
    shards = build_shards(
        partition_topical(corpus.documents, scale.n_shards, seed=scale.seed),
        analyzer=WhitespaceAnalyzer(),
    )
    try:
        paths = pack_shards(shards, args.out)
    except ValueError as exc:  # stale stores in --out: one line, no traceback
        print(exc, file=sys.stderr)
        return 1
    print(f"packed {len(paths)} store shards to {args.out}")
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    """Describe every ``.store`` shard in a packed index directory."""
    from repro.index import store_info

    paths = sorted(Path(args.index).glob("shard_*.store"))
    if not paths:
        print(f"no shard_*.store files under {args.index}", file=sys.stderr)
        return 1
    for path in paths:
        try:
            info = store_info(path)
        except ValueError as exc:  # malformed store: one line, no traceback
            print(exc, file=sys.stderr)
            return 1
        meta = info["meta"]
        print(
            f"{path.name}: shard {meta['shard_id']}  "
            f"{meta['n_docs']} docs  {meta['n_terms']} terms  "
            f"{meta['n_postings']} postings  "
            f"{info['file_bytes'] / 1e6:.2f} MB "
            f"({info['compression_ratio']:.2f}x vs int64+float64 columns)"
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.index import open_stores
    from repro.retrieval import STRATEGIES, DistributedSearcher, Query
    from repro.text import StandardAnalyzer, WhitespaceAnalyzer

    if args.k < 1:
        print(f"-k must be positive, got {args.k}", file=sys.stderr)
        return 1
    if args.strategy not in STRATEGIES:
        print(
            f"unknown strategy {args.strategy!r}; "
            f"options: {', '.join(sorted(STRATEGIES))}",
            file=sys.stderr,
        )
        return 1
    try:
        shards = open_stores(args.index)
    except (FileNotFoundError, ValueError) as exc:  # missing or malformed index
        print(exc, file=sys.stderr)
        return 1
    if args.decode_cache is not None:
        try:
            for shard in shards:
                shard.arena.set_cache_budget(args.decode_cache)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"decode LRU budget {args.decode_cache} B on {len(shards)} shard(s)")
    analyzer = WhitespaceAnalyzer() if args.raw_terms else StandardAnalyzer()
    query = Query.from_text(" ".join(args.terms), analyzer)
    if not query.terms:
        print("query analyzed to no terms", file=sys.stderr)
        return 1
    searcher = DistributedSearcher(shards, k=args.k, strategy=args.strategy)
    result = searcher.search(query)
    print(f"terms: {list(query.terms)}  ({result.cost.docs_evaluated} docs evaluated)")
    if args.decode_cache is not None:
        hits = misses = evictions = entries = retained = 0
        for shard in shards:
            decode = shard.arena.decode_stats
            hits += decode.hits
            misses += decode.misses
            evictions += decode.evictions
            entries += decode.entries
            retained += decode.bytes
        print(
            f"decode LRU: {hits} hits, {misses} misses, {evictions} evictions; "
            f"{entries} entries, {retained} B retained"
        )
    for rank, (doc_id, score) in enumerate(result.hits, start=1):
        print(f"  {rank:2d}. doc {doc_id:<8d} score {score:.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = tuple(args.policies) if args.policies else ALL_POLICIES
    if _unknown_policy(names):
        return 1
    testbed = Testbed.build(_scale(args.scale))
    traces = {
        "wikipedia": (testbed.wikipedia_trace,),
        "lucene": (testbed.lucene_trace,),
        "both": (testbed.wikipedia_trace, testbed.lucene_trace),
    }[args.trace]
    for trace in traces:
        rows = [testbed.summarize(trace, name) for name in names]
        print(comparison_table(rows, title=f"{trace.name} trace"))
        print()
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    module = FIGURES.get(args.name)
    if module is None:
        print(
            f"unknown figure {args.name!r}; options: {', '.join(sorted(FIGURES))}",
            file=sys.stderr,
        )
        return 1
    testbed = Testbed.build(_scale(args.scale))
    print(module.format_report(module.run(testbed)))
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    """Record every claim at one scale; re-render EXPERIMENTS.md if it is in --out."""
    scale = _scale(args.scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rec = scoreboard.record(args.scale, Testbed.build(scale), FIGURES)
    path = out / f"EXPERIMENTS.{args.scale}.json"
    path.write_text(json.dumps(rec, indent=1, ensure_ascii=False) + "\n")
    print(scoreboard.render(rec) + f"\nwrote {path}")
    doc, small = out / "EXPERIMENTS.md", out / "EXPERIMENTS.small.json"
    if doc.exists() and small.exists():
        doc.write_text(scoreboard.rerender(doc.read_text(), json.loads(small.read_text())))
        print(f"re-rendered {doc} from {small}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        Telemetry,
        flamegraph_summary,
        write_chrome_trace,
        write_spans_jsonl,
    )

    if _unknown_policy([args.policy]):
        return 1
    if args.max_rows < 0:
        print(f"--max-rows must be non-negative, got {args.max_rows}", file=sys.stderr)
        return 1
    testbed = Testbed.build(_scale(args.scale))
    trace = {
        "wikipedia": testbed.wikipedia_trace,
        "lucene": testbed.lucene_trace,
    }[args.trace]
    telemetry = Telemetry()
    result = testbed.cluster.run_trace(
        trace, testbed.make_policy(args.policy), telemetry=telemetry
    )
    print(
        f"replayed {len(result.records)} queries under {result.policy_name!r}: "
        f"{result.events_processed} events, {result.elapsed_ms:.1f} sim ms, "
        f"{len(telemetry.tracer.spans)} spans"
    )
    exports = set(args.export)
    stem = args.out or f"TRACE_{args.policy}_{trace.name}"
    if "perfetto" in exports:
        path = f"{stem}.json"
        count = write_chrome_trace(telemetry, path)
        print(f"wrote {count} trace events to {path} (open in https://ui.perfetto.dev)")
    if "jsonl" in exports:
        path = f"{stem}.jsonl"
        count = write_spans_jsonl(telemetry, path)
        print(f"wrote {count} spans to {path}")
    print()
    print(flamegraph_summary(telemetry, max_rows=args.max_rows))
    if args.metrics:
        print()
        for name, snap in telemetry.metrics.snapshot().items():
            fields = ", ".join(
                f"{key}={value}" for key, value in snap.items() if key != "type"
            )
            print(f"{name} [{snap['type']}]: {fields}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run the faults x replication x budget scenario matrix."""
    from repro.cluster.scenarios import SCENARIOS, default_matrix, run_matrix

    for flag, names in (
        ("--policies", args.policies), ("--scenarios", args.scenarios),
    ):
        if not names:
            print(f"{flag} needs at least one name", file=sys.stderr)
            return 1
    for scenario in args.scenarios:
        if scenario not in SCENARIOS:
            print(
                f"unknown scenario {scenario!r}; options: "
                f"{', '.join(sorted(SCENARIOS))}",
                file=sys.stderr,
            )
            return 1
    if _unknown_policy(args.policies):
        return 1
    if not 0 < args.response_timeout_ms < math.inf:
        print(
            f"--response-timeout-ms must be positive, got {args.response_timeout_ms}",
            file=sys.stderr,
        )
        return 1
    cases = default_matrix(
        policies=tuple(args.policies), scenarios=tuple(args.scenarios)
    )
    testbed = Testbed.build(_scale(args.scale))
    trace = {
        "wikipedia": testbed.wikipedia_trace,
        "lucene": testbed.lucene_trace,
    }[args.trace]
    results = run_matrix(
        testbed.cluster,
        testbed.make_policy,
        trace,
        testbed.truth_for(trace),
        cases,
        seed=args.seed,
        response_timeout_ms=args.response_timeout_ms,
    )
    header = (
        f"{'scenario':<14} {'policy':<12} {'R':>2} "
        f"{'p50_ms':>8} {'p99_ms':>8} {'P@K':>6} {'Qloss':>6} "
        f"{'drop':>5} {'hedge':>6} {'waste%':>7}"
    )
    print(header)
    print("-" * len(header))
    for cell in results:
        print(
            f"{cell.scenario:<14} {cell.policy:<12} "
            f"{cell.n_replicas:>2} {cell.p50_latency_ms:>8.2f} "
            f"{cell.p99_latency_ms:>8.2f} {cell.avg_precision:>6.3f} "
            f"{cell.quality_loss:>6.3f} {cell.avg_dropped_shards:>5.2f} "
            f"{cell.hedges_issued:>6} {100.0 * cell.wasted_work_ratio:>6.1f}%"
        )
    if args.out:
        payload = {
            "scale": args.scale,
            "trace": trace.name,
            "seed": args.seed,
            "response_timeout_ms": args.response_timeout_ms,
            "cells": [cell.row() for cell in results],
        }
        _write_json(args.out, payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Open-loop saturation campaign: sweep offered QPS, locate the knee."""
    from repro.serving import (
        AdmissionConfig,
        CampaignConfig,
        SweepPoint,
        pool_from_corpus,
        run_campaign,
    )

    if _unknown_policy([args.policy]):
        return 1
    if args.distinct < 1:
        print(f"--distinct must be positive, got {args.distinct}", file=sys.stderr)
        return 1
    try:
        admission = None
        if not args.no_admission:
            admission = AdmissionConfig(
                max_in_flight=args.max_in_flight,
                deadline_slo_ms=args.deadline_slo_ms or None,
            )
        config = CampaignConfig(
            qps_grid=tuple(args.qps or ()),
            queries_per_point=args.queries,
            arrival=args.arrival,
            seed=args.seed,
            admission=admission,
            cache_capacity=args.cache_capacity,
        )
        tolerance = args.fail_knee_tolerance
        if tolerance is not None and not 0.0 <= tolerance < math.inf:
            raise ValueError(
                f"--fail-knee-tolerance must be non-negative and finite, got {tolerance}"
            )
    except ValueError as exc:
        print(f"invalid campaign: {exc}", file=sys.stderr)
        return 1
    testbed = Testbed.build(_scale(args.scale))
    try:
        pool = pool_from_corpus(
            testbed.corpus, n_distinct=args.distinct, flavour=args.trace_flavour
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    header = (
        f"{'offered':>9} {'realized':>9} {'goodput':>9} {'ratio':>6} "
        f"{'shed':>6} {'p50_ms':>8} {'p99_ms':>8} {'pred_ms':>8} "
        f"{'power_w':>8} {'util':>5}"
    )
    print(header)
    print("-" * len(header))

    def _ms(value: float | None) -> str:
        return f"{value:>8.2f}" if value is not None else f"{'-':>8}"

    def _show(point: SweepPoint) -> None:
        print(
            f"{point.offered_qps:>9.1f} {point.realized_qps:>9.1f} "
            f"{point.goodput_qps:>9.1f} {point.goodput_ratio:>6.3f} "
            f"{point.shed:>6} {_ms(point.p50_ms)} {_ms(point.p99_ms)} "
            f"{_ms(point.predicted_mean_latency_ms)} "
            f"{point.average_power_w:>8.2f} {point.max_core_utilization:>5.2f}"
        )

    result = run_campaign(
        testbed.cluster,
        lambda: testbed.make_policy(args.policy),
        pool,
        config,
        on_point=_show,
    )
    print()
    print(
        f"{result.total_queries} queries under {result.policy_name!r} "
        f"({result.arrival} arrivals): predicted saturation "
        f"{result.predicted_knee_qps:.1f} qps, measured knee "
        f"{result.knee.knee_qps:.1f} qps (ratio {result.knee_ratio:.3f}, "
        f"{'saturated' if result.knee.saturated else 'sweep never saturated'})"
    )
    if args.out:
        _write_json(args.out, result.snapshot())
    if args.fail_knee_tolerance is not None and not result.knee_within(
        args.fail_knee_tolerance
    ):
        if result.knee.saturated:
            problem = (
                f"measured knee {result.knee.knee_qps:.1f} qps not within "
                f"{100 * args.fail_knee_tolerance:.0f}% of predicted "
                f"{result.predicted_knee_qps:.1f} qps"
            )
        else:
            problem = (
                "the sweep never saturated, so it measured no knee to hold "
                f"against predicted {result.predicted_knee_qps:.1f} qps"
            )
        print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run simlint.  Exit-code contract: 0 clean, 1 findings, 2 internal error."""
    from repro.analysis import LintEngine, get_rules

    try:
        engine = LintEngine(
            root=Path(args.root), rules=get_rules(args.rules if args.rules else None)
        )
        report = engine.run([Path(p) for p in args.paths])
    except Exception as exc:  # the contract: *any* analyzer failure is exit 2
        print(f"simlint: internal error: {exc}", file=sys.stderr)
        return 2

    for finding in report.findings:
        print(finding.render())
        if args.format == "github":
            print(finding.render_github())
    for error in report.errors:
        print(error.render(), file=sys.stderr)
        if args.format == "github":
            print(f"::error file={error.path}::{error.message}")
    for warning in report.warnings:
        print(warning.render(), file=sys.stderr)
    summary = (
        f"simlint: {report.files_scanned} file(s), "
        f"{len(report.findings)} finding(s), {len(report.errors)} error(s)"
    )
    details = []
    if report.pragma_suppressed:
        details.append(f"{report.pragma_suppressed} pragma-suppressed")
    if report.warnings:
        details.append(f"{len(report.warnings)} warning(s)")
    if details:
        summary += " (" + ", ".join(details) + ")"
    print(summary)
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cottage (HPCA 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser(
        "index", help="compressed mmap-backed store shards (.store format)"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build", help="generate a corpus and pack store shards directly"
    )
    index_build.add_argument("--scale", default="small")
    index_build.add_argument("--out", required=True, help="output directory")
    index_build.set_defaults(fn=_cmd_index_build)
    index_info = index_sub.add_parser(
        "info", help="describe every .store shard in a packed directory"
    )
    index_info.add_argument("index", help="directory of shard_*.store files")
    index_info.set_defaults(fn=_cmd_index_info)

    search = sub.add_parser("search", help="query a packed index")
    search.add_argument("index", help="directory written by index build")
    search.add_argument("terms", nargs="+", help="query text")
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--strategy", default="maxscore")
    search.add_argument(
        "--raw-terms", action="store_true",
        help="skip English analysis (synthetic 'tNNN' vocabularies)",
    )
    search.add_argument(
        "--decode-cache", type=int, default=None, metavar="BYTES",
        help="re-budget every compressed shard's decode LRU before "
        "searching and report hit/miss/eviction counts after",
    )
    search.set_defaults(fn=_cmd_search)

    compare = sub.add_parser("compare", help="run the policy comparison")
    compare.add_argument("--scale", default="unit")
    compare.add_argument("--trace", default="both",
                         choices=("wikipedia", "lucene", "both"))
    compare.add_argument("--policies", nargs="*", metavar="POLICY")
    compare.set_defaults(fn=_cmd_compare)

    figure = sub.add_parser("figure", help="reproduce one paper figure/table")
    figure.add_argument("name", help=f"one of: {', '.join(sorted(FIGURES))}")
    figure.add_argument("--scale", default="unit")
    figure.set_defaults(fn=_cmd_figure)

    paper = sub.add_parser(
        "paper", help="measure every paper claim; write the scale's scoreboard record"
    )
    paper.add_argument("--scale", default="small")
    paper.add_argument("--out", required=True, help="directory for EXPERIMENTS.<scale>.json")
    paper.set_defaults(fn=_cmd_paper)

    trace_cmd = sub.add_parser(
        "trace", help="run one policy with telemetry and export the trace"
    )
    trace_cmd.add_argument("--policy", default="cottage",
                           help=f"one of: {', '.join(ALL_POLICIES)}")
    trace_cmd.add_argument("--scale", default="unit")
    trace_cmd.add_argument("--trace", default="wikipedia",
                           choices=("wikipedia", "lucene"))
    trace_cmd.add_argument(
        "--export", nargs="*", default=("perfetto",),
        choices=("perfetto", "jsonl"),
        help="trace formats to write (default: perfetto)",
    )
    trace_cmd.add_argument(
        "--out", default="",
        help="output file stem (default TRACE_<policy>_<trace>)",
    )
    trace_cmd.add_argument("--max-rows", type=int, default=60,
                           help="flamegraph summary row cap")
    trace_cmd.add_argument("--metrics", action="store_true",
                           help="also print the metrics registry snapshot")
    trace_cmd.set_defaults(fn=_cmd_trace)

    faults = sub.add_parser(
        "faults",
        help="run the fault-scenario x replication x budget matrix",
    )
    faults.add_argument("--scale", default="unit")
    faults.add_argument("--trace", default="wikipedia",
                        choices=("wikipedia", "lucene"))
    faults.add_argument(
        "--policies", nargs="*", default=("exhaustive", "cottage"),
        metavar="POLICY", help=f"policies to grid (from: {', '.join(ALL_POLICIES)})",
    )
    faults.add_argument(
        "--scenarios", nargs="*",
        default=("outage", "flaky_shard", "slow_replica", "correlated"),
        metavar="SCENARIO", help="fault scenarios to grid",
    )
    faults.add_argument("--seed", type=int, default=0,
                        help="fault-timeline seed")
    faults.add_argument(
        "--response-timeout-ms", type=float, default=150.0,
        help="safety-net timeout for unbudgeted policies",
    )
    faults.add_argument("--out", default="",
                        help="write the matrix as JSON")
    faults.set_defaults(fn=_cmd_faults)

    serve = sub.add_parser(
        "serve",
        help="open-loop saturation campaign: QPS sweep, knee vs queueing model",
    )
    serve.add_argument("--scale", default="unit")
    serve.add_argument("--policy", default="cottage",
                       help=f"one of: {', '.join(ALL_POLICIES)}")
    serve.add_argument(
        "--trace-flavour", default="wikipedia",
        choices=("wikipedia", "lucene"),
        help="distinct-query pool flavour (same generators as the traces)",
    )
    serve.add_argument("--distinct", type=int, default=150,
                       help="distinct queries in the Zipf pool")
    serve.add_argument(
        "--qps", type=float, nargs="*", metavar="QPS",
        help="explicit offered-rate grid (default: fractions of the "
        "model-predicted saturation, straddling the knee)",
    )
    serve.add_argument("--queries", type=int, default=2000,
                       help="offered queries per sweep point")
    serve.add_argument(
        "--arrival", default="poisson",
        choices=ARRIVAL_KINDS,
        help="arrival process for every sweep point",
    )
    serve.add_argument("--seed", type=int, default=0,
                       help="campaign seed (arrivals and popularity derive from it)")
    serve.add_argument(
        "--max-in-flight", type=int, default=512,
        help="admission cap on in-flight queries (shed above it)",
    )
    serve.add_argument(
        "--deadline-slo-ms", type=float, default=0.0,
        help="deadline shedding SLO in ms (0 = rule off)",
    )
    serve.add_argument(
        "--no-admission", action="store_true",
        help="disable admission control entirely (queues may grow unboundedly "
        "above saturation)",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=0,
        help="aggregator result-cache entries (0 = off; the knee gate "
        "assumes off)",
    )
    serve.add_argument("--out", default="",
                       help="write the campaign as JSON")
    serve.add_argument(
        "--fail-knee-tolerance", type=float, default=None, metavar="REL",
        help="exit nonzero unless the measured knee is within this relative "
        "tolerance of the model prediction (e.g. 0.25)",
    )
    serve.set_defaults(fn=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run the simlint determinism analyzer (0 clean, 1 findings, 2 error)",
    )
    lint.add_argument(
        "paths", nargs="+", help="files or directory trees to analyze"
    )
    lint.add_argument(
        "--root", default=".",
        help="repo root that reported paths are relative to (default: cwd)",
    )
    lint.add_argument(
        "--rules", nargs="*", metavar="RULE",
        help="run only these rule ids (default: the full registry)",
    )
    lint.add_argument(
        "--format", default="text", choices=("text", "github"),
        help="'github' additionally emits ::error workflow annotations",
    )
    lint.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fn: Callable[[argparse.Namespace], int] = args.fn
    return fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
