"""Ranking functions for term-document scoring.

All similarities are *decomposable* (document-at-a-time friendly): the score
of a document for a multi-term query is the sum of independent per-term
contributions.  Each similarity exposes a vectorized form used both by the
query evaluator and by the index-time statistics pass, plus an analytic
per-term upper bound used by MaxScore pruning and by the
"Estimated max score" latency feature (paper Table II).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


class Similarity(ABC):
    """Interface for decomposable term-document similarities."""

    @abstractmethod
    def scores(
        self,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        doc_freq: int,
        n_docs: int,
        avg_doc_length: float,
    ) -> np.ndarray:
        """Vectorized per-term scores.

        Parameters
        ----------
        tfs:
            Term frequencies for the postings of one term.
        doc_lengths:
            Lengths (in tokens) of the corresponding documents.
        doc_freq:
            Number of documents containing the term on this shard.
        n_docs:
            Number of documents on the shard.
        avg_doc_length:
            Average document length on the shard.
        """

    @abstractmethod
    def upper_bound(
        self, max_tf: int, doc_freq: int, n_docs: int, avg_doc_length: float
    ) -> float:
        """Analytic upper bound on any document's score for this term."""

    def idf(self, doc_freq: int, n_docs: int) -> float:
        """Inverse document frequency (shared BM25-style formulation)."""
        return math.log(1.0 + (n_docs - doc_freq + 0.5) / (doc_freq + 0.5))


class BM25Similarity(Similarity):
    """Okapi BM25 with Lucene's default-ish parameters.

    ``k1=0.9, b=0.4`` follows the tuned configuration common in the selective
    search literature (Kulkarni & Callan) rather than the textbook 1.2/0.75;
    either works, but the smaller ``b`` keeps score distributions closer to
    the long-tailed shapes shown in the paper's Fig. 6.
    """

    def __init__(self, k1: float = 0.9, b: float = 0.4) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.k1 = k1
        self.b = b

    def scores(
        self,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        doc_freq: int,
        n_docs: int,
        avg_doc_length: float,
    ) -> np.ndarray:
        tfs = np.asarray(tfs, dtype=np.float64)
        doc_lengths = np.asarray(doc_lengths, dtype=np.float64)
        idf = self.idf(doc_freq, n_docs)
        norm = self.k1 * (1.0 - self.b + self.b * doc_lengths / max(avg_doc_length, 1e-9))
        return idf * tfs * (self.k1 + 1.0) / (tfs + norm)

    def upper_bound(
        self, max_tf: int, doc_freq: int, n_docs: int, avg_doc_length: float
    ) -> float:
        # The BM25 term score increases with tf and decreases with document
        # length, so the bound is attained at tf = max_tf with the shortest
        # conceivable document (length -> 0 gives norm = k1 * (1 - b)).
        idf = self.idf(doc_freq, n_docs)
        norm = self.k1 * (1.0 - self.b)
        return idf * max_tf * (self.k1 + 1.0) / (max_tf + norm)


class TFIDFSimilarity(Similarity):
    """Classic sublinear tf-idf: ``(1 + log tf) * idf`` with length norm."""

    def scores(
        self,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        doc_freq: int,
        n_docs: int,
        avg_doc_length: float,
    ) -> np.ndarray:
        tfs = np.asarray(tfs, dtype=np.float64)
        doc_lengths = np.asarray(doc_lengths, dtype=np.float64)
        idf = self.idf(doc_freq, n_docs)
        weight = (1.0 + np.log(np.maximum(tfs, 1.0))) * idf
        return weight / np.sqrt(np.maximum(doc_lengths, 1.0))

    def upper_bound(
        self, max_tf: int, doc_freq: int, n_docs: int, avg_doc_length: float
    ) -> float:
        idf = self.idf(doc_freq, n_docs)
        return (1.0 + math.log(max(max_tf, 1))) * idf


class LMDirichletSimilarity(Similarity):
    """Language model with Dirichlet smoothing, shifted to be non-negative.

    The raw LM-Dirichlet score can be negative; following Lucene, scores are
    clipped at zero so that decomposable pruning bounds remain valid.
    ``collection_prob`` is approximated per-shard as ``doc_freq / total
    tokens`` when the true collection term frequency is unavailable.
    """

    def __init__(self, mu: float = 2000.0) -> None:
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = mu

    def scores(
        self,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        doc_freq: int,
        n_docs: int,
        avg_doc_length: float,
    ) -> np.ndarray:
        tfs = np.asarray(tfs, dtype=np.float64)
        doc_lengths = np.asarray(doc_lengths, dtype=np.float64)
        total_tokens = max(n_docs * avg_doc_length, 1.0)
        collection_prob = max(doc_freq / total_tokens, 1e-12)
        raw = np.log1p(tfs / (self.mu * collection_prob)) + math.log(
            self.mu / (self.mu + 1.0)
        )
        raw = raw + np.log1p(self.mu / np.maximum(doc_lengths, 1.0)) * 0.0
        return np.maximum(raw, 0.0)

    def upper_bound(
        self, max_tf: int, doc_freq: int, n_docs: int, avg_doc_length: float
    ) -> float:
        total_tokens = max(n_docs * avg_doc_length, 1.0)
        collection_prob = max(doc_freq / total_tokens, 1e-12)
        raw = math.log1p(max_tf / (self.mu * collection_prob)) + math.log(
            self.mu / (self.mu + 1.0)
        )
        return max(raw, 0.0)
