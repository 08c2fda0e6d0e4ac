"""Headline numbers — the abstract's claims, measured.

Cottage vs exhaustive on the Wikipedia trace: average latency reduction,
p95 factor, documents-searched ratio, power saving, and P@10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.summary import relative_improvement


@dataclass(frozen=True)
class HeadlineResult:
    latency_reduction: float
    latency_speedup: float
    p95_factor: float
    docs_ratio: float
    power_saving: float
    p_at_10: float
    active_isns: float
    n_shards: int


def run(testbed: Testbed) -> HeadlineResult:
    trace = testbed.wikipedia_trace
    exhaustive = testbed.summarize(trace, "exhaustive")
    cottage = testbed.summarize(trace, "cottage")
    return HeadlineResult(
        latency_reduction=relative_improvement(
            exhaustive.avg_latency_ms, cottage.avg_latency_ms
        ),
        latency_speedup=exhaustive.avg_latency_ms / cottage.avg_latency_ms,
        p95_factor=exhaustive.p95_latency_ms / cottage.p95_latency_ms,
        docs_ratio=exhaustive.avg_docs_searched / max(cottage.avg_docs_searched, 1e-9),
        power_saving=relative_improvement(exhaustive.avg_power_w, cottage.avg_power_w),
        p_at_10=cottage.avg_precision,
        active_isns=cottage.avg_selected_isns,
        n_shards=testbed.cluster.n_shards,
    )


def format_report(result: HeadlineResult) -> str:
    lines = ["Headline — Cottage vs exhaustive (Wikipedia trace)"]
    return "\n".join(lines + scoreboard.lines("headline", result))
