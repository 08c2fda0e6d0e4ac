"""Unit + property tests for Gamma score-distribution modeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import Document, IndexBuilder, TermStatsIndex
from repro.predictors.gamma_quality import TailyQualityEstimator
from repro.scoring.distributions import (
    expected_above,
    fit_gamma_moments,
    gamma_quantile,
    histogram_tail_count,
    score_histogram,
)
from repro.text import WhitespaceAnalyzer


class TestMomentsFit:
    def test_recovers_moments(self):
        shape, scale = fit_gamma_moments(mean=4.0, variance=2.0)
        assert shape * scale == pytest.approx(4.0)
        assert shape * scale**2 == pytest.approx(2.0)

    def test_degenerate_variance(self):
        shape, scale = fit_gamma_moments(mean=3.0, variance=0.0)
        # Collapses to a near-point mass around the mean.
        assert expected_above(shape, scale, 1, 2.9) > 0.99
        assert expected_above(shape, scale, 1, 3.1) < 0.01

    def test_sf_monotone(self):
        shape, scale = fit_gamma_moments(5.0, 4.0)
        thresholds = np.linspace(0, 20, 30)
        values = [float(expected_above(shape, scale, 1, t)) for t in thresholds]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_sf_at_zero_is_one(self):
        shape, scale = fit_gamma_moments(5.0, 4.0)
        assert expected_above(shape, scale, 1, 0.0) == 1.0

    def test_expected_above_scales_with_count(self):
        shape, scale = fit_gamma_moments(5.0, 4.0)
        small, large = expected_above([shape] * 2, [scale] * 2, [10, 1000], 5.0)
        assert large == pytest.approx(100 * small)

    def test_quantile_inverts_sf(self):
        shape, scale = fit_gamma_moments(5.0, 4.0)
        q = gamma_quantile(shape, scale, 0.9)
        assert expected_above(shape, scale, 1, q) == pytest.approx(0.1, abs=1e-6)

    def test_quantile_validation(self):
        shape, scale = fit_gamma_moments(5.0, 4.0)
        with pytest.raises(ValueError):
            gamma_quantile(shape, scale, 0.0)


class TestCombine:
    def test_sum_moments_add(self):
        """Taily's per-shard fit of a query is the moment-matched sum of
        its terms' fits, over the shorter posting list."""
        builder = IndexBuilder(0, analyzer=WhitespaceAnalyzer())
        builder.add_all(
            Document(doc_id=i, text=text)
            for i, text in enumerate(["a a b", "a", "a b b b", "a c", "b a a a"])
        )
        stats = TermStatsIndex(builder.build(), k=1)
        shape, scale, count = TailyQualityEstimator([stats]).shard_gammas(["a", "b"])
        a, b = stats.get("a"), stats.get("b")
        assert shape[0] * scale[0] == pytest.approx(a.mean + b.mean)
        assert shape[0] * scale[0] ** 2 == pytest.approx(a.variance + b.variance)
        assert count[0] == min(a.posting_length, b.posting_length) == 3


class TestHistogramHelpers:
    def test_score_histogram_ignores_nonpositive(self):
        counts, edges = score_histogram(np.array([0.0, -1.0, 1.0, 2.0]), bins=2)
        assert counts.sum() == 2

    def test_all_zero_scores(self):
        counts, _ = score_histogram(np.zeros(5), bins=3)
        assert counts.sum() == 0

    def test_tail_count(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        assert histogram_tail_count(scores, 2.5) == 2
        assert expected_above(*fit_gamma_moments(2.5, 1.0), 4, 0.0) == 4.0


@settings(max_examples=100, deadline=None)
@given(
    mean=st.floats(0.1, 50.0),
    variance=st.floats(0.01, 100.0),
    count=st.integers(1, 10_000),
    threshold=st.floats(0.0, 100.0),
)
def test_expected_above_bounded_by_count(mean, variance, count, threshold):
    expected = expected_above(*fit_gamma_moments(mean, variance), count, threshold)
    assert 0.0 <= expected <= count + 1e-9
