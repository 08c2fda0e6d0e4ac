"""Fig. 8 — latency predictor accuracy curve.

Mirror of Fig. 7 for the service-time model: accuracy-vs-iterations on one
ISN, then per-ISN accuracy (within one latency bin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import scoreboard
from repro.experiments.testbed import Testbed
from repro.predictors.datasets import build_latency_dataset
from repro.predictors.latency import LatencyPredictor
from repro.workloads.traces import training_queries


@dataclass(frozen=True)
class LatencyPredictorResult:
    curve_iterations: list[int]
    curve_accuracy: list[float]
    per_isn_accuracy: list[float]


def run(
    testbed: Testbed,
    shard_id: int = 0,
    iterations: int | None = None,
    eval_every: int = 25,
) -> LatencyPredictorResult:
    iterations = iterations or testbed.scale.latency_iterations
    queries = training_queries(
        testbed.corpus, testbed.scale.n_training_queries,
        seed=testbed.scale.seed + 1000,
    )
    dataset = build_latency_dataset(
        shard_id, testbed.bank.stats_indexes[shard_id], testbed.cluster, queries
    )
    train, test = dataset.split(0.2, seed=testbed.scale.seed)
    model = LatencyPredictor(seed=testbed.scale.seed)
    # Exact-bin eval during training (the Sequential's accuracy metric);
    # the headline per-ISN numbers use the within-one-bin criterion.
    test_bins = np.array([model.binning.bin_of(s) for s in test.service_ms])
    history = model.fit(
        train.features,
        train.service_ms,
        iterations=iterations,
        eval_set=(test.features, test_bins),
        eval_every=eval_every,
    )
    report = testbed.training_report
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
