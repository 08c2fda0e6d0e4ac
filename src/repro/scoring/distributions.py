"""Score-distribution modeling.

Taily (Aly et al., SIGIR'13) — the distributed baseline the paper compares
against — models per-term document scores as a Gamma distribution fitted from
index-time moments, then estimates how many of a shard's documents score
above the global top-K threshold.  This module provides the Gamma machinery
plus the histogram utilities behind the paper's Fig. 6 (which shows how the
fitted Gamma deviates from the true score histogram, motivating Cottage's NN
quality predictor).

The tail and quantile functions take arrays of fits (one element per
shard) and evaluate them in one ``scipy.special`` call — the functions
``scipy.stats.gamma``'s ``sf``/``ppf`` call for a scalar fit, so each
element is bit for bit what the scalar distribution gives.
``scipy.special`` is imported inside :func:`expected_above` and
:func:`gamma_quantile`, the only code that evaluates a Gamma: it about
doubles a bare process's resident memory (≈25 MiB over numpy's ≈27 MiB
on CPython 3.11 with scipy 1.17.1) and import time, and a process that
never runs Taily never loads it.  ``scipy.stats`` is never imported.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike


def fit_gamma_moments(mean: float, variance: float) -> tuple[float, float]:
    """Method-of-moments Gamma ``(shape, scale)`` from index-time aggregates.

    This is exactly what Taily stores per term: the mean and variance of the
    term's document scores (plus the document count, which scales the tail).
    Degenerate inputs (zero variance, e.g. a term whose every posting scores
    identically) collapse to a near-point mass rather than raising.
    """
    mean = max(float(mean), 1e-9)
    variance = max(float(variance), 1e-12)
    return mean**2 / variance, variance / mean


def expected_above(
    shape: ArrayLike, scale: ArrayLike, count: ArrayLike, threshold: float
) -> np.ndarray:
    """Expected documents scoring above ``threshold`` (Taily's ``n_i``).

    ``count * P(X > threshold)`` per fitted Gamma, elementwise over the
    arrays ``shape``, ``scale`` and ``count`` (the posting-list length a
    fit summarizes).
    """
    count = np.asarray(count)
    if threshold <= 0.0:
        return count * 1.0
    from scipy import special

    return count * special.gammaincc(shape, threshold / np.asarray(scale))


def gamma_quantile(shape: ArrayLike, scale: ArrayLike, q: float) -> np.ndarray:
    """Score value at quantile ``q`` of each fitted Gamma."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    from scipy import special

    return special.gammaincinv(shape, q) * np.asarray(scale)


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

    The ground-truth counterpart of :func:`expected_above`; the gap
    between the two is the Fig. 6 motivation for an NN quality predictor.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return int(np.count_nonzero(scores > threshold))
