"""Fig. 7 — quality predictor accuracy and loss curve.

(a) accuracy/loss vs training iterations on one ISN.
(b) per-ISN held-out accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.metrics.quality import GroundTruth
from repro.predictors.datasets import build_quality_dataset
from repro.predictors.quality import QualityPredictor
from repro.workloads.traces import training_queries


@dataclass(frozen=True)
class QualityPredictorResult:
    curve_iterations: list[int]
    curve_accuracy: list[float]
    curve_loss: list[float]
    per_isn_accuracy: list[float]


def run(
    testbed: Testbed,
    shard_id: int = 0,
    iterations: int | None = None,
    eval_every: int = 25,
) -> QualityPredictorResult:
    iterations = iterations or testbed.scale.quality_iterations
    queries = training_queries(
        testbed.corpus, testbed.scale.n_training_queries,
        seed=testbed.scale.seed + 1000,
    )
    truth = GroundTruth.build(testbed.cluster.searcher, queries, k=testbed.cluster.k)
    dataset = build_quality_dataset(
        shard_id, testbed.bank.stats_indexes[shard_id], queries, truth
    )
    train, test = dataset.split(0.2, seed=testbed.scale.seed)
    model = QualityPredictor(testbed.cluster.k, seed=testbed.scale.seed)
    history = model.fit(
        train.features,
        train.labels_k,
        iterations=iterations,
        eval_set=(test.features, test.labels_k),
        eval_every=eval_every,
    )
    # Smooth the mini-batch losses to the eval grid for the (a) panel.
    losses = [
        float(np.mean(history.loss[max(it - eval_every, 0) : it]))
        for it in history.eval_iterations
    ]
    report = testbed.training_report
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
