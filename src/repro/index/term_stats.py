"""Index-time term statistics — the raw material of Cottage's predictors.

The paper's Tables I and II define the per-term features feeding the quality
and latency NNs; every one of them derives from statistics "calculated during
the indexing phase" (Section I).  This module computes those statistics from
a term's per-posting score array (doc-id order, as traversal sees it) and
caches them on the shard, so query-time feature extraction is a dict lookup.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.index.shard import IndexShard


@dataclass(frozen=True)
class TermStats:
    """All index-time statistics for one term on one shard.

    Score aggregates (Table I) describe the score distribution; traversal
    statistics (Table II) describe how a dynamic-pruning evaluator will move
    through the posting list, which is what drives service time.
    """

    term: str
    posting_length: int
    # --- score aggregates (Table I) ---
    first_quartile: float
    mean: float
    median: float
    geometric_mean: float
    harmonic_mean: float
    third_quartile: float
    kth_score: float
    max_score: float
    variance: float
    # --- traversal statistics (Table II) ---
    docs_ever_in_topk: int
    n_local_maxima: int
    n_local_maxima_above_mean: int
    n_max_score: int
    docs_within_5pct_of_max: int
    docs_within_5pct_of_kth: int
    estimated_max_score: float
    idf: float


def _docs_ever_in_topk(scores: np.ndarray, k: int) -> int:
    """Count documents that enter the running top-k during DAAT traversal.

    Dynamic pruning must fully score every document that improves the
    current top-k heap; the count of such documents is a strong service-time
    signal (Table II row 2).
    """
    heap: list[float] = []
    entered = 0
    for s in scores:
        s = float(s)
        if len(heap) < k:
            heapq.heappush(heap, s)
            entered += 1
        elif s > heap[0]:
            heapq.heapreplace(heap, s)
            entered += 1
    return entered


def _local_maxima_mask(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of local score maxima along the posting list.

    A posting is a local maximum when it scores strictly above its
    predecessor and at least as high as its successor (endpoints compare
    only against their single neighbour).  Local peaks are documents the
    pruning strategies cannot skip (paper Section III-C).
    """
    n = scores.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.ones(1, dtype=bool)
    left_ok = np.empty(n, dtype=bool)
    left_ok[0] = True
    left_ok[1:] = scores[1:] > scores[:-1]
    right_ok = np.empty(n, dtype=bool)
    right_ok[-1] = True
    right_ok[:-1] = scores[:-1] >= scores[1:]
    return left_ok & right_ok


def compute_term_stats(
    term: str,
    scores: np.ndarray,
    k: int,
    idf: float,
    upper_bound: float,
) -> TermStats:
    """Compute the full statistics bundle for one term.

    Parameters
    ----------
    scores:
        Per-posting scores in doc-id (traversal) order.
    k:
        The engine's top-K (the paper uses K=10 throughout).
    idf:
        Inverse document frequency of the term on this shard.
    upper_bound:
        The similarity's analytic upper bound, reported as the "Estimated
        max score" feature (the Macdonald et al. upper-bound approximation
        in the paper's Table II).
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = int(scores.size)
    if n == 0:
        return TermStats(
            term=term, posting_length=0, first_quartile=0.0, mean=0.0, median=0.0,
            geometric_mean=0.0, harmonic_mean=0.0, third_quartile=0.0, kth_score=0.0,
            max_score=0.0, variance=0.0, docs_ever_in_topk=0, n_local_maxima=0,
            n_local_maxima_above_mean=0, n_max_score=0, docs_within_5pct_of_max=0,
            docs_within_5pct_of_kth=0, estimated_max_score=0.0, idf=idf,
        )

    q1, median, q3 = (float(v) for v in np.percentile(scores, [25, 50, 75]))
    mean = float(scores.mean())
    max_score = float(scores.max())
    variance = float(scores.var())
    positive = scores[scores > 0]
    if positive.size:
        geometric = float(np.exp(np.mean(np.log(positive))))
        harmonic = float(positive.size / np.sum(1.0 / positive))
    else:
        geometric = 0.0
        harmonic = 0.0
    if n >= k:
        kth = float(np.partition(scores, n - k)[n - k])
    else:
        kth = float(scores.min())

    maxima = _local_maxima_mask(scores)
    n_local = int(maxima.sum())
    n_local_above_mean = int(np.count_nonzero(maxima & (scores > mean)))
    n_max = int(np.count_nonzero(scores >= max_score - 1e-12))
    within_max = int(np.count_nonzero(scores >= 0.95 * max_score))
    within_kth = int(np.count_nonzero(scores >= 0.95 * kth))

    return TermStats(
        term=term,
        posting_length=n,
        first_quartile=q1,
        mean=mean,
        median=median,
        geometric_mean=geometric,
        harmonic_mean=harmonic,
        third_quartile=q3,
        kth_score=kth,
        max_score=max_score,
        variance=variance,
        docs_ever_in_topk=_docs_ever_in_topk(scores, k),
        n_local_maxima=n_local,
        n_local_maxima_above_mean=n_local_above_mean,
        n_max_score=n_max,
        docs_within_5pct_of_max=within_max,
        docs_within_5pct_of_kth=within_kth,
        estimated_max_score=upper_bound * math.log1p(n),
        idf=idf,
    )


class TermStatsIndex:
    """Per-shard cache of :class:`TermStats`.

    Statistics are computed lazily on first access and memoized — building
    them for the entire vocabulary up front would waste indexing time on
    terms no query ever touches.
    """

    def __init__(self, shard: IndexShard, k: int = 10) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.shard = shard
        self.k = k
        self._cache: dict[str, TermStats] = {}

    def get(self, term: str) -> TermStats:
        cached = self._cache.get(term)
        if cached is not None:
            return cached
        run = self.shard.arena.run(term)
        if run is None:
            stats = compute_term_stats(
                term, np.zeros(0), self.k, idf=self.shard.idf(term), upper_bound=0.0
            )
        else:
            stats = compute_term_stats(
                term,
                np.asarray(run.scores),
                self.k,
                idf=self.shard.idf(term),
                upper_bound=run.upper_bound,
            )
        self._cache[term] = stats
        return stats

    def __len__(self) -> int:
        return len(self._cache)
