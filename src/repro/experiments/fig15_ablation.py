"""Fig. 15 — component ablation.

Five schemes (exhaustive, Taily, Cottage-withoutML, Cottage-ISN, Cottage)
on both traces across four metrics: average latency, P@10, active ISNs and
C_RES.  Quantifies what (a) the NN quality model and (b) the coordinated
aggregator design each contribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.summary import PolicySummary

SCHEMES = ("exhaustive", "taily", "cottage_without_ml", "cottage_isn", "cottage")


@dataclass(frozen=True)
class AblationResult:
    summaries: dict[str, dict[str, PolicySummary]]  # trace -> scheme -> summary


def run(testbed: Testbed) -> AblationResult:
    return AblationResult(summaries=testbed.summary_table(SCHEMES))


def format_report(result: AblationResult) -> str:
    lines = ["Fig. 15 — ablation: ML prediction and coordination"]
    for trace_name, rows in result.summaries.items():
        lines.append(f"[{trace_name}]")
        lines.append("  scheme               avg_ms   P@10   ISNs    C_RES")
        for scheme, s in rows.items():
            lines.append(
                f"  {scheme:<20} {s.avg_latency_ms:6.2f}  {s.avg_precision:.3f}"
                f"  {s.avg_selected_isns:5.2f}  {s.avg_docs_searched:7.1f}"
            )
        if trace_name == "wikipedia":
            lines += scoreboard.lines("fig15", result)
            lines.append(
                "  NOTE: negative reductions mean the Gamma variant keeps"
                " FEWER ISNs than Cottage here — at reproduction scale the"
                " Gamma estimate is sharp and over-cuts, which is also why"
                " its P@10 is lower (see EXPERIMENTS.md deviation 1)."
            )
    return "\n".join(lines)
