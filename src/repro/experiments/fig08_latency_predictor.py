"""Fig. 8 — latency predictor accuracy curve.

Mirror of Fig. 7 for the service-time model, read from the bank's own
training (``testbed.training_report``): (a) ISN-0's latency fit, scored
exact-bin on its held-out split every ``EVAL_EVERY`` iterations while it
trained; (b) per-ISN held-out accuracy (within one latency bin).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed


@dataclass(frozen=True)
class LatencyPredictorResult:
    curve_iterations: list[int]
    curve_accuracy: list[float]
    per_isn_accuracy: list[float]


def run(testbed: Testbed) -> LatencyPredictorResult:
    report = testbed.training_report
    history = report.latency_history[0]
    return LatencyPredictorResult(
        curve_iterations=history.eval_iterations,
        curve_accuracy=history.eval_accuracy,
        per_isn_accuracy=list(report.latency_accuracy),
    )


def format_report(result: LatencyPredictorResult) -> str:
    lines = ["Fig. 8 — latency predictor", "(a) exact-bin accuracy vs iterations (ISN-0):"]
    for it, acc in zip(result.curve_iterations, result.curve_accuracy):
        lines.append(f"  iter {it:4d}: accuracy={acc:.3f}")
    lines.append("(b) per-ISN held-out accuracy (±1 bin):")
    for sid, acc in enumerate(result.per_isn_accuracy):
        lines.append(f"  ISN-{sid:<2d} accuracy={acc:.3f}")
    return "\n".join(lines + scoreboard.lines("fig08", result))
