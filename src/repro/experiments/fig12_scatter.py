"""Fig. 12 — per-query latency vs quality scatter.

Cottage's queries cluster top-left (fast and accurate); Taily and Rank-S
scatter down the quality axis.  The harness reports quadrant occupancy
rather than a plot: the fraction of queries that are both fast (latency
below the exhaustive median) and good (P@10 >= 0.8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.testbed import Testbed
from repro.reporting import scatter_plot

POLICIES = ("cottage", "taily", "rank_s")


@dataclass(frozen=True)
class ScatterResult:
    points: dict[str, list[tuple[float, float]]]  # policy -> (latency, P@10)
    fast_good_fraction: dict[str, float]
    latency_threshold_ms: float


def run(testbed: Testbed) -> ScatterResult:
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    threshold = testbed.summarize(trace, "exhaustive").p50_latency_ms

    points: dict[str, list[tuple[float, float]]] = {}
    fractions: dict[str, float] = {}
    for policy in POLICIES:
        run_result = testbed.run(trace, policy)
        policy_points = [
            (
                record.latency_ms,
                truth.precision(record.query, record.result.doc_ids()),
            )
            for record in run_result.records
        ]
        points[policy] = policy_points
        fractions[policy] = float(
            np.mean([lat <= threshold and p >= 0.8 for lat, p in policy_points])
        )
    return ScatterResult(
        points=points, fast_good_fraction=fractions, latency_threshold_ms=threshold
    )


def format_report(result: ScatterResult) -> str:
    lines = [
        "Fig. 12 — latency-quality scatter (Wikipedia trace)",
        f"fast = latency <= exhaustive median ({result.latency_threshold_ms:.1f} ms), "
        "good = P@10 >= 0.8",
    ]
    for policy, fraction in result.fast_good_fraction.items():
        lines.append(f"  {policy:<8} fast-and-good fraction: {fraction:.2%}")
    for policy, points in result.points.items():
        lines.append(f"[{policy}] latency (x) vs P@10 (y):")
        lines.append(
            scatter_plot(points, x_label="latency ms", y_label="P@10")
        )
    lines.append(
        "  (paper: Cottage's dots sit top-left; Taily/Rank-S scatter across "
        "the quality range)"
    )
    return "\n".join(lines)
