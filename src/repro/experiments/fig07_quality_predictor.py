"""Fig. 7 — quality predictor accuracy and loss curve.

(a) accuracy/loss vs training iterations on one ISN.
(b) per-ISN held-out accuracy.

Both panels read the bank's own training (``testbed.training_report``):
(a) is ISN-0's Quality-K fit, scored on its held-out split every
``EVAL_EVERY`` iterations while it trained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.predictors.bank import EVAL_EVERY


@dataclass(frozen=True)
class QualityPredictorResult:
    curve_iterations: list[int]
    curve_accuracy: list[float]
    curve_loss: list[float]
    per_isn_accuracy: list[float]


def run(testbed: Testbed) -> QualityPredictorResult:
    report = testbed.training_report
    history = report.quality_history[0]
    # Smooth the mini-batch losses to the eval grid for the (a) panel.
    losses = [
        float(np.mean(history.loss[max(it - EVAL_EVERY, 0) : it]))
        for it in history.eval_iterations
    ]
    return QualityPredictorResult(
        curve_iterations=history.eval_iterations,
        curve_accuracy=history.eval_accuracy,
        curve_loss=losses,
        per_isn_accuracy=list(report.quality_accuracy),
    )


def format_report(result: QualityPredictorResult) -> str:
    lines = ["Fig. 7 — quality predictor", "(a) accuracy/loss vs iterations (ISN-0):"]
    for it, acc, loss in zip(
        result.curve_iterations, result.curve_accuracy, result.curve_loss
    ):
        lines.append(f"  iter {it:4d}: accuracy={acc:.3f}  loss={loss:.3f}")
    lines.append("(b) per-ISN held-out accuracy:")
    for sid, acc in enumerate(result.per_isn_accuracy):
        lines.append(f"  ISN-{sid:<2d} accuracy={acc:.3f}")
    return "\n".join(lines + scoreboard.lines("fig07", result))
