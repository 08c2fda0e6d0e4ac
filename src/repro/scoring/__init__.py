"""Scoring substrate: the ranking function and score-distribution tools.

``similarity`` provides the ranking function, BM25, that the index-time
scoring pass and the term statistics use; ``distributions``
provides the Gamma-fitting machinery that Taily and the Cottage-withoutML
ablation rely on (paper Section III-B / Fig. 6).
"""

from repro.scoring.distributions import (
    expected_above,
    fit_gamma_moments,
    gamma_quantile,
    score_histogram,
)
from repro.scoring.similarity import B, K1, BM25Similarity

__all__ = [
    "BM25Similarity",
    "K1",
    "B",
    "fit_gamma_moments",
    "expected_above",
    "gamma_quantile",
    "score_histogram",
]
