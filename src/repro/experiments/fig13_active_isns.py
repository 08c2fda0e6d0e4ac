"""Fig. 13 — average number of selected ISNs per query."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed

POLICIES = ("exhaustive", "taily", "rank_s", "cottage")


@dataclass(frozen=True)
class ActiveISNResult:
    active: dict[str, dict[str, float]]  # trace -> policy -> mean selected
    n_shards: int


def run(testbed: Testbed) -> ActiveISNResult:
    table: dict[str, dict[str, float]] = {}
    for trace_name in ("wikipedia", "lucene"):
        trace = getattr(testbed, f"{trace_name}_trace")
        table[trace_name] = {
            policy: float(
                np.mean([record.n_selected for record in testbed.run(trace, policy).records])
            )
            for policy in POLICIES
        }
    return ActiveISNResult(active=table, n_shards=testbed.cluster.n_shards)


def format_report(result: ActiveISNResult) -> str:
    lines = [f"Fig. 13 — average selected ISNs per query (of {result.n_shards})"]
    for trace_name, row in result.active.items():
        lines.append(f"[{trace_name}]")
        for policy, value in row.items():
            lines.append(f"  {policy:<11} {value:5.2f}")
    return "\n".join(lines + scoreboard.lines("fig13", result))
