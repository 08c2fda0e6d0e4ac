"""Scoring substrate: ranking functions and score-distribution tools.

``similarity`` provides the ranking functions (BM25 et al.) used by the
retrieval engine and by the index-time term statistics; ``distributions``
provides the Gamma-fitting machinery that Taily and the Cottage-withoutML
ablation rely on (paper Section III-B / Fig. 6).
"""

from repro.scoring.distributions import (
    expected_above,
    fit_gamma_moments,
    gamma_quantile,
    score_histogram,
)
from repro.scoring.similarity import (
    BM25Similarity,
    LMDirichletSimilarity,
    Similarity,
    TFIDFSimilarity,
)

__all__ = [
    "Similarity",
    "BM25Similarity",
    "TFIDFSimilarity",
    "LMDirichletSimilarity",
    "fit_gamma_moments",
    "expected_above",
    "gamma_quantile",
    "score_histogram",
]
