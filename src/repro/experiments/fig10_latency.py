"""Fig. 10 — overall latency on the Wikipedia and Lucene traces.

(a)/(c): per-time-bucket average latency series for the four policies.
(b)/(d): average and 95th-percentile latency bars.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.latency import mean, percentile, timeline
from repro.reporting import series_chart

POLICIES = ("exhaustive", "taily", "rank_s", "cottage")


@dataclass(frozen=True)
class LatencyResult:
    trace: str
    timelines: dict[str, list[tuple[float, float]]]
    avg_ms: dict[str, float]
    p95_ms: dict[str, float]


def run_trace(testbed: Testbed, trace_name: str) -> LatencyResult:
    trace = getattr(testbed, f"{trace_name}_trace")
    timelines: dict[str, list[tuple[float, float]]] = {}
    avg: dict[str, float] = {}
    p95: dict[str, float] = {}
    for policy in POLICIES:
        run = testbed.run(trace, policy)
        arrivals = [record.arrival_ms / 1000.0 for record in run.records]
        latencies = run.latencies_ms()
        timelines[policy] = timeline(arrivals, latencies, bucket_s=5.0)
        avg[policy] = mean(latencies)
        p95[policy] = percentile(latencies, 95)
    return LatencyResult(trace=trace_name, timelines=timelines, avg_ms=avg, p95_ms=p95)


def run(testbed: Testbed) -> dict[str, LatencyResult]:
    return {name: run_trace(testbed, name) for name in ("wikipedia", "lucene")}


def format_report(results: dict[str, LatencyResult]) -> str:
    lines = ["Fig. 10 — overall latency"]
    for name, result in results.items():
        lines.append(f"[{name}] avg latency over trace time (5 s buckets):")
        lines.append(series_chart(result.timelines))
        lines.append(f"[{name}] avg / p95 latency (ms):")
        for policy in POLICIES:
            lines.append(
                f"  {policy:<11} avg={result.avg_ms[policy]:7.2f}  "
                f"p95={result.p95_ms[policy]:7.2f}"
            )
        lines += scoreboard.lines("fig10", results, name)
    return "\n".join(lines)
