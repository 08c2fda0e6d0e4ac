"""Unit + property tests for Gamma score-distribution modeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring.distributions import (
    combine_gamma_sum,
    fit_gamma_moments,
    gamma_tail_count,
    histogram_tail_count,
    score_histogram,
)


class TestMomentsFit:
    def test_recovers_moments(self):
        fit = fit_gamma_moments(mean=4.0, variance=2.0, count=100)
        assert fit.mean == pytest.approx(4.0)
        assert fit.variance == pytest.approx(2.0)
        assert fit.count == 100

    def test_degenerate_variance(self):
        fit = fit_gamma_moments(mean=3.0, variance=0.0, count=10)
        # Collapses to a near-point mass around the mean.
        assert fit.sf(2.9) > 0.99
        assert fit.sf(3.1) < 0.01

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            fit_gamma_moments(1.0, 1.0, -1)

    def test_sf_monotone(self):
        fit = fit_gamma_moments(5.0, 4.0, 50)
        thresholds = np.linspace(0, 20, 30)
        values = [fit.sf(t) for t in thresholds]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_sf_at_zero_is_one(self):
        fit = fit_gamma_moments(5.0, 4.0, 50)
        assert fit.sf(0.0) == 1.0

    def test_expected_above_scales_with_count(self):
        small = fit_gamma_moments(5.0, 4.0, 10)
        large = fit_gamma_moments(5.0, 4.0, 1000)
        assert large.expected_above(5.0) == pytest.approx(
            100 * small.expected_above(5.0)
        )

    def test_quantile_inverts_sf(self):
        fit = fit_gamma_moments(5.0, 4.0, 10)
        q = fit.quantile(0.9)
        assert fit.sf(q) == pytest.approx(0.1, abs=1e-6)

    def test_quantile_validation(self):
        fit = fit_gamma_moments(5.0, 4.0, 10)
        with pytest.raises(ValueError):
            fit.quantile(0.0)


class TestCombine:
    def test_sum_moments_add(self):
        a = fit_gamma_moments(2.0, 1.0, 100)
        b = fit_gamma_moments(3.0, 2.0, 50)
        combined = combine_gamma_sum([a, b])
        assert combined.mean == pytest.approx(5.0)
        assert combined.variance == pytest.approx(3.0)
        assert combined.count == 50  # min posting length

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_gamma_sum([])


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
        assert gamma_tail_count(fit_gamma_moments(2.5, 1.0, 4), 0.0) == 4.0


@settings(max_examples=100, deadline=None)
@given(
    mean=st.floats(0.1, 50.0),
    variance=st.floats(0.01, 100.0),
    count=st.integers(1, 10_000),
    threshold=st.floats(0.0, 100.0),
)
def test_expected_above_bounded_by_count(mean, variance, count, threshold):
    fit = fit_gamma_moments(mean, variance, count)
    expected = fit.expected_above(threshold)
    assert 0.0 <= expected <= count + 1e-9
