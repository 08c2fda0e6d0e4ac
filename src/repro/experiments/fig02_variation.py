"""Fig. 2 — latency and quality-contribution variation.

(a) Client-side latency histogram of the Wikipedia trace under exhaustive
search: long-tailed, with the modal bin at small latencies.
(b) Histogram of how many ISNs contribute at least one document to each
query's P@10 results: always well below the full 16.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.latency import latency_histogram


@dataclass(frozen=True)
class VariationResult:
    latency_bins: list[tuple[float, float, int]]
    mode_bin: tuple[float, float]
    mode_fraction: float
    contributing_histogram: dict[int, int]
    modal_contributing_isns: int
    n_queries: int
    n_shards: int


def run(testbed: Testbed) -> VariationResult:
    trace = testbed.wikipedia_trace
    exhaustive = testbed.run(trace, "exhaustive")
    bins = latency_histogram(exhaustive.latencies_ms(), bin_width_ms=5.0)
    total = sum(count for _, _, count in bins)
    lo, hi, count = max(bins, key=lambda b: b[2])

    truth = testbed.truth_for(trace)
    contributing: dict[int, int] = {}
    for query in {q.terms: q for q in trace}.values():
        n = truth.get(query).contributing_shards()
        contributing[n] = contributing.get(n, 0) + 1
    modal = max(contributing, key=lambda n: contributing[n])
    return VariationResult(
        latency_bins=bins,
        mode_bin=(lo, hi),
        mode_fraction=count / total,
        contributing_histogram=dict(sorted(contributing.items())),
        modal_contributing_isns=modal,
        n_queries=total,
        n_shards=testbed.cluster.n_shards,
    )


def format_report(result: VariationResult) -> str:
    lines = [
        "Fig. 2 — latency and quality variation (Wikipedia trace, exhaustive)",
        f"(a) latency histogram over {result.n_queries} queries, 5 ms bins:",
    ]
    for lo, hi, count in result.latency_bins:
        bar = "#" * max(int(60 * count / max(result.n_queries, 1)), 0)
        lines.append(f"  [{lo:5.0f},{hi:5.0f}) ms  {count:5d}  {bar}")
    lines += scoreboard.lines("fig02", result, "a")
    lines.append("(b) ISNs contributing to P@10, per distinct query:")
    for n, count in result.contributing_histogram.items():
        lines.append(f"  {n:2d} ISNs: {count:4d} queries")
    return "\n".join(lines + scoreboard.lines("fig02", result, "b"))
