"""Extension — zero-class probability calibration.

Cottage's cut-confidence gate (EXPERIMENTS.md deviation 2 and its
"Calibration" bullet, hand-run and unpinned) trusts the
quality model's P(zero contribution).  This bench prints the reliability
diagram and expected calibration error behind that trust: at high
confidence, predicted-zero shards should truly be zeros.
"""

from repro.predictors import zero_class_calibration
from repro.workloads import training_queries


def test_ext_calibration(testbed):
    queries = training_queries(testbed.corpus, 80, seed=990)
    report = zero_class_calibration(testbed.bank, queries, n_bins=10)
    print("\nExtension — P(zero contribution) reliability:")
    print(report.render())
    assert report.expected_calibration_error < 0.25
    confident = [b for b in report.bins if b.lo >= 0.8]
    if confident:
        pooled = sum(b.empirical_rate * b.count for b in confident) / sum(
            b.count for b in confident
        )
        # Confident zeros are overwhelmingly real zeros — the premise of
        # the cut_confidence=0.9 default.
        assert pooled > 0.7
