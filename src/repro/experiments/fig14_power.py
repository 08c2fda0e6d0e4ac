"""Fig. 14 — average package power per policy, plus the idle floor."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed

POLICIES = ("exhaustive", "taily", "rank_s", "cottage")


@dataclass(frozen=True)
class PowerResult:
    power_w: dict[str, dict[str, float]]  # trace -> policy -> watts
    idle_w: float
    n_shards: int


def run(testbed: Testbed) -> PowerResult:
    table: dict[str, dict[str, float]] = {}
    idle = testbed.cluster.power_model.idle_package_w(testbed.cluster.n_shards)
    for trace_name in ("wikipedia", "lucene"):
        trace = getattr(testbed, f"{trace_name}_trace")
        table[trace_name] = {
            policy: testbed.run(trace, policy).power.average_power_w
            for policy in POLICIES
        }
    return PowerResult(power_w=table, idle_w=idle, n_shards=testbed.cluster.n_shards)


def format_report(result: PowerResult) -> str:
    lines = ["Fig. 14 — average package power (W)"]
    lines.append(f"  idle floor: {result.idle_w:.2f} W")
    for trace_name, row in result.power_w.items():
        lines.append(f"[{trace_name}]")
        for policy, value in row.items():
            lines.append(f"  {policy:<11} {value:6.2f} W")
    lines += scoreboard.lines("fig14", result)
    lines.append(
        "  NOTE: Cottage's power saving is understated at reproduction scale"
        " — cut shards hold little of the query's work under topical"
        " partitioning (see EXPERIMENTS.md)."
    )
    return "\n".join(lines)
