"""Fig. 10 — overall latency on the Wikipedia and Lucene traces.

(a)/(c): per-time-bucket average latency series for the four policies.
(b)/(d): average and 95th-percentile latency bars.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.latency import timeline
from repro.metrics.summary import PolicySummary
from repro.reporting import series_chart

POLICIES = ("exhaustive", "taily", "rank_s", "cottage")


@dataclass(frozen=True)
class LatencyResult:
    timelines: dict[str, dict[str, list[tuple[float, float]]]]  # trace -> policy -> series
    summaries: dict[str, dict[str, PolicySummary]]  # trace -> policy -> summary


def run(testbed: Testbed) -> LatencyResult:
    timelines: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for trace in (testbed.wikipedia_trace, testbed.lucene_trace):
        timelines[trace.name] = {}
        for policy in POLICIES:
            result = testbed.run(trace, policy)
            arrivals = [record.arrival_ms / 1000.0 for record in result.records]
            timelines[trace.name][policy] = timeline(
                arrivals, result.latencies_ms(), bucket_s=5.0
            )
    return LatencyResult(timelines=timelines, summaries=testbed.summary_table(POLICIES))


def format_report(result: LatencyResult) -> str:
    lines = ["Fig. 10 — overall latency"]
    for name, row in result.summaries.items():
        lines.append(f"[{name}] avg latency over trace time (5 s buckets):")
        lines.append(series_chart(result.timelines[name]))
        lines.append(f"[{name}] avg / p95 latency (ms):")
        for policy, summary in row.items():
            lines.append(
                f"  {policy:<11} avg={summary.avg_latency_ms:7.2f}  "
                f"p95={summary.p95_latency_ms:7.2f}"
            )
        lines += scoreboard.lines("fig10", result, name)
    return "\n".join(lines)
