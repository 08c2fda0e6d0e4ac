"""Score-distribution modeling.

Taily (Aly et al., SIGIR'13) — the distributed baseline the paper compares
against — models per-term document scores as a Gamma distribution fitted from
index-time moments, then estimates how many of a shard's documents score
above the global top-K threshold.  This module provides the Gamma machinery
plus the histogram utilities behind the paper's Fig. 6 (which shows how the
fitted Gamma deviates from the true score histogram, motivating Cottage's NN
quality predictor).

``scipy.stats`` is imported inside :meth:`GammaFit.sf` and
:meth:`GammaFit.quantile`, the only code that evaluates a Gamma tail: it
is most of a bare process's resident memory and import time, and a
process that never runs Taily never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaFit:
    """A fitted Gamma distribution over document scores.

    Attributes
    ----------
    shape, scale:
        Standard Gamma parameters (``k`` and ``theta``).
    count:
        Number of observations the fit summarizes (posting-list length for a
        single term).  Tail expectations scale by this count.
    """

    shape: float
    scale: float
    count: int

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2

    def sf(self, threshold: float) -> float:
        """P(X > threshold) under the fitted Gamma."""
        if threshold <= 0.0:
            return 1.0
        from scipy import stats as scipy_stats

        return float(scipy_stats.gamma.sf(threshold, a=self.shape, scale=self.scale))

    def expected_above(self, threshold: float) -> float:
        """Expected number of documents scoring above ``threshold``."""
        return self.count * self.sf(threshold)

    def quantile(self, q: float) -> float:
        """Score value at quantile ``q`` of the fitted Gamma."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        from scipy import stats as scipy_stats

        return float(scipy_stats.gamma.ppf(q, a=self.shape, scale=self.scale))


def fit_gamma_moments(mean: float, variance: float, count: int) -> GammaFit:
    """Method-of-moments Gamma fit from index-time aggregates.

    This is exactly what Taily stores per term: the mean and variance of the
    term's document scores plus the document count.  Degenerate inputs (zero
    variance, e.g. a term whose every posting scores identically) collapse to
    a near-point mass rather than raising.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    mean = max(float(mean), 1e-9)
    variance = max(float(variance), 1e-12)
    shape = mean**2 / variance
    scale = variance / mean
    return GammaFit(shape=shape, scale=scale, count=count)


def combine_gamma_sum(fits: list[GammaFit]) -> GammaFit:
    """Moment-match the distribution of a *sum* of independent Gamma terms.

    Taily aggregates multi-term queries by summing per-term score variables;
    the sum of independent Gammas with different scales is not Gamma, so —
    as in the original paper — we re-fit a Gamma to the summed mean and
    variance.  The count of the combined fit is the minimum posting length,
    the number of documents that could plausibly contain all terms.
    """
    if not fits:
        raise ValueError("need at least one fit to combine")
    total_mean = sum(f.mean for f in fits)
    total_var = sum(f.variance for f in fits)
    count = min(f.count for f in fits)
    return fit_gamma_moments(total_mean, total_var, count)


def gamma_tail_count(fit: GammaFit, threshold: float) -> float:
    """Expected number of documents above ``threshold`` (Taily's ``n_i``)."""
    return fit.expected_above(threshold)


def score_histogram(
    scores: np.ndarray, bins: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of positive document scores (counts, bin edges).

    Documents that do not contain any query term score zero and are excluded,
    matching Fig. 6's "documents without any relevant query terms are
    ignored".
    """
    scores = np.asarray(scores, dtype=np.float64)
    scores = scores[scores > 0]
    if scores.size == 0:
        return np.zeros(bins, dtype=np.int64), np.linspace(0.0, 1.0, bins + 1)
    counts, edges = np.histogram(scores, bins=bins)
    return counts.astype(np.int64), edges


def histogram_tail_count(scores: np.ndarray, threshold: float) -> int:
    """True number of documents scoring above ``threshold``.

    The ground-truth counterpart of :func:`gamma_tail_count`; the gap
    between the two is the Fig. 6 motivation for an NN quality predictor.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return int(np.count_nonzero(scores > threshold))
