"""Fig. 13 — average number of selected ISNs per query."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.summary import PolicySummary

POLICIES = ("exhaustive", "taily", "rank_s", "cottage")


@dataclass(frozen=True)
class ActiveISNResult:
    summaries: dict[str, dict[str, PolicySummary]]  # trace -> policy -> summary
    n_shards: int


def run(testbed: Testbed) -> ActiveISNResult:
    return ActiveISNResult(
        summaries=testbed.summary_table(POLICIES), n_shards=testbed.cluster.n_shards
    )


def format_report(result: ActiveISNResult) -> str:
    lines = [f"Fig. 13 — average selected ISNs per query (of {result.n_shards})"]
    for trace_name, row in result.summaries.items():
        lines.append(f"[{trace_name}]")
        for policy, summary in row.items():
            lines.append(f"  {policy:<11} {summary.avg_selected_isns:5.2f}")
    return "\n".join(lines + scoreboard.lines("fig13", result))
