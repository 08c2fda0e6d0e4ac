"""Fig. 14 — average package power per policy, plus the idle floor."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.summary import PolicySummary

POLICIES = ("exhaustive", "taily", "rank_s", "cottage")


@dataclass(frozen=True)
class PowerResult:
    summaries: dict[str, dict[str, PolicySummary]]  # trace -> policy -> summary
    idle_w: float
    n_shards: int


def run(testbed: Testbed) -> PowerResult:
    n_shards = testbed.cluster.n_shards
    return PowerResult(
        summaries=testbed.summary_table(POLICIES),
        idle_w=testbed.cluster.power_model.idle_package_w(n_shards),
        n_shards=n_shards,
    )


def format_report(result: PowerResult) -> str:
    lines = ["Fig. 14 — average package power (W)"]
    lines.append(f"  idle floor: {result.idle_w:.2f} W")
    for trace_name, row in result.summaries.items():
        lines.append(f"[{trace_name}]")
        for policy, summary in row.items():
            lines.append(f"  {policy:<11} {summary.avg_power_w:6.2f} W")
    lines += scoreboard.lines("fig14", result)
    lines.append(
        "  NOTE: Cottage's power saving is understated at reproduction scale"
        " — cut shards hold little of the query's work under topical"
        " partitioning (see EXPERIMENTS.md)."
    )
    return "\n".join(lines)
