"""Taily's Gamma-distribution quality estimator (Aly et al., SIGIR'13).

The distributed baseline the paper compares against, and the quality
estimator of the Cottage-withoutML ablation: each shard models per-term
document scores as a Gamma fitted from index-time moments, multi-term
queries combine by moment-matched summation, and the aggregator picks a
global score threshold ``s_c`` such that the expected number of documents
above it (across all shards) equals ``n_c``.  A shard's quality estimate is
its expected document count above ``s_c``.
"""

from __future__ import annotations

import numpy as np

from repro.index.term_stats import TermStatsIndex
from repro.predictors.arrays import FloatArray, IntArray
from repro.scoring.distributions import expected_above, fit_gamma_moments, gamma_quantile


class TailyQualityEstimator:
    """Cluster-wide Gamma-based contribution estimator."""

    def __init__(self, stats_indexes: list[TermStatsIndex]) -> None:
        if not stats_indexes:
            raise ValueError("need at least one shard's statistics")
        self.stats_indexes = stats_indexes
        # Taily's n_c: how deep a global pool the threshold models.  The
        # original paper uses hundreds for web-scale shards; 2K keeps the
        # same "a bit deeper than the answer" intent at reproduction scale.
        self.n_c = 2 * stats_indexes[0].k
        # Estimates depend only on immutable index statistics; memoized so
        # trace replay doesn't refit Gammas on every arrival.
        self._expected: dict[tuple[str, ...], tuple[float, ...]] = {}

    def shard_gammas(
        self, terms: tuple[str, ...] | list[str]
    ) -> tuple[FloatArray, FloatArray, IntArray]:
        """Per shard ``(shape, scale, count)`` of the query's score sum.

        Each term a shard holds is fitted by moments; the sum of those
        Gammas is re-fitted to the summed means and variances (a sum of
        Gammas with different scales is not Gamma), over the shortest of
        the terms' posting lists — the documents that could contain them
        all.  A shard holding no query term has count 0 (its shape and
        scale are the clamped fit of nothing).
        """
        rows: list[tuple[float, float, int]] = []
        for index in self.stats_indexes:
            held = [stats for stats in map(index.get, terms) if stats.posting_length]
            fits = [fit_gamma_moments(stats.mean, stats.variance) for stats in held]
            shape, scale = fit_gamma_moments(
                sum(a * theta for a, theta in fits),
                sum(a * theta**2 for a, theta in fits),
            )
            rows.append((shape, scale, min((s.posting_length for s in held), default=0)))
        shape, scale, count = zip(*rows)
        return np.array(shape), np.array(scale), np.array(count)

    def estimate(self, terms: tuple[str, ...] | list[str]) -> tuple[float, ...]:
        """Each shard's expected documents in the global top-``n_c``."""
        key = tuple(terms)
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        shape, scale, count = self.shard_gammas(key)
        live = count > 0
        expected = np.zeros(len(count))
        if live.any():
            shape, scale, count = shape[live], scale[live], count[live]
            threshold = self._solve_threshold(shape, scale, count)
            expected[live] = expected_above(shape, scale, count, threshold)
        result = self._expected[key] = tuple(expected.tolist())
        return result

    def _solve_threshold(
        self, shape: FloatArray, scale: FloatArray, count: IntArray
    ) -> float:
        """Bisection for s_c with  sum_i E[docs_i above s_c] = n_c.

        The tail expectation is monotonically decreasing in the threshold,
        so plain bisection over [0, max plausible score] converges fast.
        Each step totals the live shards' expectations with the builtin
        ``sum`` over Python floats in shard order (the interpreter's own
        float summation, not numpy's pairwise one).
        """
        def total_above(s: float) -> float:
            above: list[float] = expected_above(shape, scale, count, s).tolist()
            return sum(above)

        tops: list[float] = gamma_quantile(shape, scale, 1.0 - 1e-9).tolist()
        hi = max(tops)
        lo = 0.0
        if total_above(lo) <= self.n_c:
            return lo  # fewer candidate docs than the pool: keep everything
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if total_above(mid) > self.n_c:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def quality_counts(
        self, terms: tuple[str, ...] | list[str], k: int
    ) -> list[int]:
        """Integer contribution estimates scaled to a top-``k`` answer.

        The Cottage-withoutML variant needs Q^K / Q^{K/2}-shaped integers;
        expected top-n_c counts are scaled down to the top-k pool
        proportionally and rounded.
        """
        expected = self.estimate(terms)
        total = sum(expected)
        if total <= 0:
            return [0 for _ in expected]
        scale = min(k / total, 1.0)
        return [int(round(docs * scale)) for docs in expected]
