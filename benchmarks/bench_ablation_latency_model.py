"""Ablation — latency model: bin classification (paper) vs regression.

Same Table-II features and MLP trunk; the paper's bin classifier against a
log-MSE regressor.  Prints within-±30% accuracy and median relative error
for both on one ISN's held-out queries.

Pays for: no EXPERIMENTS.md or DESIGN.md number (DESIGN.md audit row, ISSUE 24).
"""

import numpy as np

from repro.predictors import LatencyPredictor, build_latency_dataset
from repro.predictors.latency_regression import LatencyRegressor
from repro.workloads import training_queries


def test_ablation_latency_model(testbed):
    queries = training_queries(
        testbed.corpus, testbed.scale.n_training_queries,
        seed=testbed.scale.seed + 1000,
    )
    dataset = build_latency_dataset(
        0, testbed.bank.stats_indexes[0], testbed.cluster, queries
    )
    train, test = dataset.split(0.2)
    iterations = testbed.scale.latency_iterations

    classifier = LatencyPredictor(seed=0)
    classifier.fit(train.features, train.service_ms, iterations=iterations)
    regressor = LatencyRegressor(seed=0)
    regressor.fit(train.features, train.service_ms, iterations=iterations)

    cls_pred = classifier.predict_service_ms(test.features)
    cls_rel = float(np.median(
        np.abs(cls_pred - test.service_ms) / np.maximum(test.service_ms, 1e-9)
    ))
    cls_acc = float(np.mean(
        np.abs(cls_pred - test.service_ms) / np.maximum(test.service_ms, 1e-9) <= 0.3
    ))
    reg_acc = regressor.accuracy(test.features, test.service_ms)
    reg_rel = regressor.median_relative_error(test.features, test.service_ms)

    print("\nAblation — latency model family (ISN-0, held out):")
    print(f"  classifier (paper):  ±30% accuracy={cls_acc:.3f}  "
          f"median rel err={cls_rel:.3f}")
    print(f"  regressor (log-MSE): ±30% accuracy={reg_acc:.3f}  "
          f"median rel err={reg_rel:.3f}")
    # Both model families must beat a constant predictor decisively.
    baseline = float(np.median(train.service_ms))
    base_acc = float(np.mean(
        np.abs(baseline - test.service_ms) / np.maximum(test.service_ms, 1e-9) <= 0.3
    ))
    print(f"  constant baseline:   ±30% accuracy={base_acc:.3f}")
    assert cls_acc > base_acc
    assert reg_acc > base_acc * 0.9
