"""Unit tests for the quality/latency predictors and the Taily estimator."""

import numpy as np
import pytest

from repro.index.term_stats import TermStatsIndex
from repro.predictors import (
    LatencyBinning,
    LatencyPredictor,
    QualityPredictor,
    TailyQualityEstimator,
)


def toy_quality_data(n=300, k=5, seed=0):
    """Features whose first column determines the class."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 10))
    y = np.clip((x[:, 0] * 2 + 2).astype(int), 0, k)
    return x, y


class TestQualityPredictor:
    def test_learns_toy_problem(self):
        x, y = toy_quality_data()
        model = QualityPredictor(k=5, hidden_layers=2, hidden_units=32)
        model.fit(x, y, iterations=1200)
        assert model.accuracy(x, y) > 0.65

    def test_labels_clipped_to_k(self):
        x, _ = toy_quality_data(50)
        model = QualityPredictor(k=3, hidden_layers=1, hidden_units=8)
        model.fit(x, np.full(50, 99), iterations=10)
        assert model.predict_counts(x).max() <= 3

    def test_predict_before_fit_raises(self):
        model = QualityPredictor(k=5)
        with pytest.raises(RuntimeError):
            model.predict_counts(np.zeros((1, 10)))

    def test_predict_with_zero_prob(self):
        x, y = toy_quality_data()
        model = QualityPredictor(k=5, hidden_layers=1, hidden_units=8)
        model.fit(x, y, iterations=100)
        count, p_zero = model.predict_with_zero_prob(x[0])
        assert 0 <= count <= 5
        assert 0.0 <= p_zero <= 1.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            QualityPredictor(k=0)


class TestLatencyBinning:
    def test_log_bins_cover_range(self):
        binning = LatencyBinning.logarithmic(lo_ms=1.0, hi_ms=100.0, n_bins=10)
        assert binning.n_bins == 10
        assert binning.bin_of(0.1) == 0
        assert binning.bin_of(1000.0) == 9

    def test_bin_of_monotone(self):
        binning = LatencyBinning.logarithmic()
        values = [0.1, 1.0, 5.0, 20.0, 100.0, 500.0]
        bins = [binning.bin_of(v) for v in values]
        assert bins == sorted(bins)

    def test_center_within_bin(self):
        binning = LatencyBinning.logarithmic(lo_ms=1.0, hi_ms=100.0, n_bins=10)
        for b in range(1, binning.n_bins - 1):
            center = binning.center_ms(b)
            assert binning.bin_of(center) == b

    def test_roundtrip_error_bounded(self):
        binning = LatencyBinning.logarithmic()
        for value in (1.0, 3.7, 12.0, 55.0, 150.0):
            center = binning.center_ms(binning.bin_of(value))
            assert abs(np.log(center / value)) < np.log(1.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyBinning.logarithmic(lo_ms=5.0, hi_ms=1.0)
        with pytest.raises(ValueError):
            LatencyBinning.logarithmic(n_bins=1)

    def test_two_bins_rejected(self):
        """Two bins are one edge, and a bin center needs two: such a
        predictor used to fit, then raise IndexError on every prediction."""
        with pytest.raises(ValueError, match=r"^need at least three bins, got n_bins=2$"):
            LatencyBinning.logarithmic(n_bins=2)

    @pytest.mark.parametrize(
        "edges",
        [(), (5.0,), (5.0, 2.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 2.0),
         (1.0, float("nan")), (1.0, float("inf"))],
    )
    def test_unusable_edges_rejected(self, edges):
        """Empty, single, unordered, repeated, non-positive or non-finite
        edges used to be accepted, and ``searchsorted`` misbinned."""
        with pytest.raises(ValueError, match=r"^latency bin edges must be at least two"):
            LatencyBinning(edges)

    def test_fewest_bins_predict(self):
        x = np.random.default_rng(0).normal(size=(40, 15))
        model = LatencyPredictor(
            LatencyBinning.logarithmic(n_bins=3), hidden_layers=1, hidden_units=4
        )
        model.fit(x, np.exp(x[:, 0] + 2.0), iterations=5)
        assert (model.predict_service_ms(x) > 0).all()


class TestLatencyPredictor:
    def _toy(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 15))
        service = np.exp(x[:, 0] * 0.8 + 2.0)  # 1-50 ms, driven by feature 0
        return x, service

    def test_learns_service_time(self):
        x, service = self._toy()
        model = LatencyPredictor(hidden_layers=2, hidden_units=32)
        model.fit(x, service, iterations=1200)
        assert model.accuracy(x, service) > 0.6

    def test_predict_service_positive(self):
        x, service = self._toy(100)
        model = LatencyPredictor(hidden_layers=1, hidden_units=8)
        model.fit(x, service, iterations=50)
        assert (model.predict_service_ms(x) > 0).all()

    def test_accuracy_tolerance_widens(self):
        x, service = self._toy(200)
        model = LatencyPredictor(hidden_layers=1, hidden_units=8)
        model.fit(x, service, iterations=100)
        strict = model.accuracy(x, service, tolerance_bins=0)
        loose = model.accuracy(x, service, tolerance_bins=3)
        assert loose >= strict

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            LatencyPredictor().predict_bins(np.zeros((1, 15)))


class TestTailyEstimator:
    @pytest.fixture()
    def estimator(self, shards):
        return TailyQualityEstimator([TermStatsIndex(s, k=10) for s in shards])

    def test_estimates_nonnegative_and_bounded(self, estimator, shards):
        term = shards[0].terms()[0]
        estimate = estimator.estimate([term])
        assert len(estimate) == len(shards)
        for sid, expected in enumerate(estimate):
            assert 0.0 <= expected <= shards[sid].n_docs

    def test_unknown_terms_give_zero(self, estimator, shards):
        assert estimator.estimate(["zzz-missing"]) == (0.0,) * len(shards)
        assert estimator.quality_counts(["zzz-missing"], k=10) == [0] * len(shards)

    def test_total_near_nc(self, estimator, shards):
        # The threshold is solved so total expected docs ≈ n_c (when there
        # are enough candidates).
        term = max(shards[0].terms(), key=lambda t: shards[0].doc_freq(t))
        total = sum(estimator.estimate([term]))
        candidates = sum(s.doc_freq(term) for s in shards)
        if candidates > estimator.n_c:
            assert total == pytest.approx(estimator.n_c, rel=0.1)

    def test_quality_counts_sum_bounded(self, estimator, shards):
        term = shards[0].terms()[0]
        counts = estimator.quality_counts([term], k=10)
        assert sum(counts) <= 10 + len(shards)  # rounding slack

    def test_estimate_cached(self, estimator, shards):
        term = shards[0].terms()[0]
        assert estimator.estimate([term]) is estimator.estimate([term])

    def test_shard_gammas_count_zero_when_absent(self, estimator, shards):
        term = shards[0].terms()[0]
        _, _, count = estimator.shard_gammas([term, "zzz-missing"])
        assert count.tolist() == [s.doc_freq(term) for s in shards]
        assert not estimator.shard_gammas(["zzz-missing"])[2].any()

    def test_empty_indexes_rejected(self):
        with pytest.raises(ValueError):
            TailyQualityEstimator([])
