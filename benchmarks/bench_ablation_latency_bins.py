"""Ablation — latency-bin resolution (DESIGN.md "Latency bin count (24 log-spaced)").

The latency predictor classifies log-spaced service-time bins; the paper
notes its model has "more neurons on the output layer".  This bench sweeps
the bin count: too few bins give coarse budgets, too many starve each class
of training data.
"""

import numpy as np

from repro.predictors import LatencyBinning, LatencyPredictor, build_latency_dataset
from repro.workloads import training_queries


def test_ablation_latency_bins(testbed):
    queries = training_queries(testbed.corpus, testbed.scale.n_training_queries,
                               seed=testbed.scale.seed + 1000)
    dataset = build_latency_dataset(
        0, testbed.bank.stats_indexes[0], testbed.cluster, queries
    )
    train, test = dataset.split(0.2)

    rows = {}
    for n_bins in (8, 16, 24, 40):
        model = LatencyPredictor(LatencyBinning.logarithmic(n_bins=n_bins), seed=0)
        model.fit(train.features, train.service_ms,
                  iterations=testbed.scale.latency_iterations)
        predicted = model.predict_service_ms(test.features)
        rel_err = float(
            np.median(np.abs(predicted - test.service_ms) / np.maximum(test.service_ms, 0.1))
        )
        rows[n_bins] = (model.accuracy(test.features, test.service_ms), rel_err)


    print("\nAblation — latency bin count (ISN-0):")
    print("  bins   ±1-bin accuracy   median relative error")
    for n_bins, (accuracy, rel_err) in rows.items():
        print(f"  {n_bins:<6} {accuracy:.3f}            {rel_err:.3f}")
    # More bins -> finer service-time resolution (lower relative error)
    # even as exact-bin accuracy falls.
    assert rows[40][1] <= rows[8][1] + 0.05
