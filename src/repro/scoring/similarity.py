"""The ranking function: Okapi BM25.

BM25 is what the paper's Solr testbed ranks with, and every Table I/II
feature is a statistic of its scores.  It is *decomposable*
(document-at-a-time friendly): the score of a document for a multi-term
query is the sum of independent per-term contributions.  The vectorized
form serves the index-time scoring pass; the analytic per-term upper
bound serves MaxScore pruning and the "Estimated max score" latency
feature (paper Table II).

``K1 = 0.9, B = 0.4`` follow the tuned configuration common in the
selective search literature (Kulkarni & Callan) rather than the textbook
1.2/0.75: the smaller ``B`` keeps score distributions closer to the
long-tailed shapes shown in the paper's Fig. 6.
"""

from __future__ import annotations

import math

import numpy as np

K1 = 0.9
B = 0.4


class BM25Similarity:
    """Okapi BM25 at ``K1``/``B``; stateless, every method static."""

    @staticmethod
    def idf(doc_freq: int, n_docs: int) -> float:
        """Inverse document frequency, non-negative even for ubiquitous terms."""
        return math.log(1.0 + (n_docs - doc_freq + 0.5) / (doc_freq + 0.5))

    @staticmethod
    def scores(
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
            Number of documents containing the term.
        n_docs:
            Number of documents the statistics cover.
        avg_doc_length:
            Average document length over those documents.
        """
        tfs = np.asarray(tfs, dtype=np.float64)
        doc_lengths = np.asarray(doc_lengths, dtype=np.float64)
        idf = BM25Similarity.idf(doc_freq, n_docs)
        norm = K1 * (1.0 - B + B * doc_lengths / max(avg_doc_length, 1e-9))
        return idf * tfs * (K1 + 1.0) / (tfs + norm)

    @staticmethod
    def upper_bound(
        max_tf: int, doc_freq: int, n_docs: int, avg_doc_length: float
    ) -> float:
        """Analytic upper bound on any document's score for this term."""
        # The BM25 term score increases with tf and decreases with document
        # length, so the bound is attained at tf = max_tf with the shortest
        # conceivable document (length -> 0 gives norm = K1 * (1 - B)).
        idf = BM25Similarity.idf(doc_freq, n_docs)
        norm = K1 * (1.0 - B)
        return idf * max_tf * (K1 + 1.0) / (max_tf + norm)
