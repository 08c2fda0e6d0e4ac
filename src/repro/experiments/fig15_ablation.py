"""Fig. 15 — component ablation.

Five schemes (exhaustive, Taily, Cottage-withoutML, Cottage-ISN, Cottage)
on both traces across four metrics: average latency, P@10, active ISNs and
C_RES.  Quantifies what (a) the NN quality model and (b) the coordinated
aggregator design each contribute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed

SCHEMES = ("exhaustive", "taily", "cottage_without_ml", "cottage_isn", "cottage")


@dataclass(frozen=True)
class AblationRow:
    scheme: str
    avg_latency_ms: float
    p_at_10: float
    active_isns: float
    c_res: float


@dataclass(frozen=True)
class AblationResult:
    rows: dict[str, list[AblationRow]]  # trace -> rows


def run(testbed: Testbed) -> AblationResult:
    table: dict[str, list[AblationRow]] = {}
    for trace_name in ("wikipedia", "lucene"):
        trace = getattr(testbed, f"{trace_name}_trace")
        truth = testbed.truth_for(trace)
        rows = []
        for scheme in SCHEMES:
            run_result = testbed.run(trace, scheme)
            precisions = [
                truth.precision(record.query, record.result.doc_ids())
                for record in run_result.records
            ]
            rows.append(
                AblationRow(
                    scheme=scheme,
                    avg_latency_ms=float(np.mean(run_result.latencies_ms())),
                    p_at_10=float(np.mean(precisions)),
                    active_isns=float(
                        np.mean([r.n_selected for r in run_result.records])
                    ),
                    c_res=float(np.mean([r.docs_searched for r in run_result.records])),
                )
            )
        table[trace_name] = rows
    return AblationResult(rows=table)


def format_report(result: AblationResult) -> str:
    lines = ["Fig. 15 — ablation: ML prediction and coordination"]
    for trace_name, rows in result.rows.items():
        lines.append(f"[{trace_name}]")
        lines.append("  scheme               avg_ms   P@10   ISNs    C_RES")
        for row in rows:
            lines.append(
                f"  {row.scheme:<20} {row.avg_latency_ms:6.2f}  {row.p_at_10:.3f}"
                f"  {row.active_isns:5.2f}  {row.c_res:7.1f}"
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
