"""Query feature extraction — the paper's Tables I and II.

Every feature derives from index-time term statistics
(:class:`repro.index.TermStatsIndex`).  Multi-term queries aggregate
per-term values with the MAX operator, the choice the paper makes for
phrase features ("In our experiments, we choose the MAX operator to
calculate the phrase features"), except the query-length feature which is
the term count itself.

:func:`trace_feature_tensors` is the one place term statistics become
Table I/II vectors: the bank trains on its output and serves from it,
and the Tables I/II harness prints a row of it.
"""

from __future__ import annotations

import numpy as np

from repro.index.term_stats import TermStats, TermStatsIndex
from repro.predictors.arrays import FloatArray

# Table I — features for quality prediction, in order.
QUALITY_FEATURE_NAMES: tuple[str, ...] = (
    "first_quartile_score",
    "arithmetic_average_score",
    "median_score",
    "geometric_average_score",
    "harmonic_average_score",
    "third_quartile_score",
    "kth_score",
    "max_score",
    "score_variance",
    "posting_list_length",
)

# Table II — features for latency prediction, in order.
LATENCY_FEATURE_NAMES: tuple[str, ...] = (
    "posting_list_length",
    "docs_ever_in_top_k",
    "n_local_score_maxima",
    "n_local_score_maxima_above_mean",
    "n_max_score",
    "query_length",
    "docs_within_5pct_of_max_score",
    "docs_within_5pct_of_kth_score",
    "arithmetic_average_score",
    "geometric_average_score",
    "harmonic_average_score",
    "max_score",
    "estimated_max_score",
    "score_variance",
    "idf",
)


def _quality_row(stats: TermStats) -> FloatArray:
    return np.array(
        [
            stats.first_quartile,
            stats.mean,
            stats.median,
            stats.geometric_mean,
            stats.harmonic_mean,
            stats.third_quartile,
            stats.kth_score,
            stats.max_score,
            stats.variance,
            float(stats.posting_length),
        ]
    )


def _latency_row(stats: TermStats) -> FloatArray:
    return np.array(
        [
            float(stats.posting_length),
            float(stats.docs_ever_in_topk),
            float(stats.n_local_maxima),
            float(stats.n_local_maxima_above_mean),
            float(stats.n_max_score),
            0.0,  # query_length: a per-query value, written by trace_feature_tensors
            float(stats.docs_within_5pct_of_max),
            float(stats.docs_within_5pct_of_kth),
            stats.mean,
            stats.geometric_mean,
            stats.harmonic_mean,
            stats.max_score,
            stats.estimated_max_score,
            stats.variance,
            stats.idf,
        ]
    )


# Column of the query-length pass-through feature in the Table-II vector.
_QUERY_LENGTH_COL = LATENCY_FEATURE_NAMES.index("query_length")


class TermFeatureCache:
    """Per-cluster cache of per-term feature rows stacked across shards.

    Each term's Table-I/II rows are built from its :class:`TermStats` on
    every shard once, stored stacked shard-major (``[S, F]``), so a
    query's full ``n_shards x n_features`` matrices assemble with one
    stack + segmented max over precomputed arrays.

    Latency rows are cached with the query-length column zeroed — the
    value is a per-query constant, written into the aggregated matrix
    afterwards.  Shard term statistics are immutable, so entries never
    invalidate.
    """

    def __init__(self, stats_indexes: list[TermStatsIndex]) -> None:
        if not stats_indexes:
            raise ValueError("need at least one shard stats index")
        self.stats_indexes = stats_indexes
        self._rows: dict[str, tuple[FloatArray, FloatArray]] = {}

    @property
    def n_shards(self) -> int:
        return len(self.stats_indexes)

    def rows(self, term: str) -> tuple[FloatArray, FloatArray]:
        """``(quality_rows[S, 10], latency_rows[S, 15])`` for one term."""
        cached = self._rows.get(term)
        if cached is not None:
            return cached
        per_shard = [stats.get(term) for stats in self.stats_indexes]
        quality = np.stack([_quality_row(stats) for stats in per_shard])
        latency = np.stack([_latency_row(stats) for stats in per_shard])
        entry = (quality, latency)
        self._rows[term] = entry
        return entry

    def __len__(self) -> int:
        return len(self._rows)


def trace_feature_tensors(
    term_tuples: list[tuple[str, ...]], cache: TermFeatureCache
) -> tuple[FloatArray, FloatArray]:
    """Feature tensors for a whole trace: ``([NQ, S, 10], [NQ, S, 15])``.

    One pass over the stacked term-stat arrays: every query's term rows
    are concatenated once and MAX-aggregated per query with a single
    segmented reduce (``np.maximum.reduceat``).  MAX is exact, so slice
    ``[i, s]`` is bit for bit the MAX over query ``i``'s terms of shard
    ``s``'s rows, whatever else is in the batch.  Training
    (:meth:`~repro.predictors.PredictorBank.train`) and serving
    (:meth:`~repro.predictors.PredictorBank.batch_predict`) both build
    their inputs here.  An empty term tuple is a ``ValueError``.
    """
    if not term_tuples:
        n = cache.n_shards
        return (
            np.zeros((0, n, len(QUALITY_FEATURE_NAMES))),
            np.zeros((0, n, len(LATENCY_FEATURE_NAMES))),
        )
    offsets = []
    cursor = 0
    for terms in term_tuples:
        if not terms:
            raise ValueError("query has no terms")
        offsets.append(cursor)
        cursor += len(terms)
    flat = [cache.rows(term) for terms in term_tuples for term in terms]
    quality_rows = np.stack([rows[0] for rows in flat])  # [T_total, S, 10]
    latency_rows = np.stack([rows[1] for rows in flat])  # [T_total, S, 15]
    quality = np.maximum.reduceat(quality_rows, offsets, axis=0)
    latency = np.maximum.reduceat(latency_rows, offsets, axis=0)
    lengths = np.array([float(len(terms)) for terms in term_tuples])
    latency[:, :, _QUERY_LENGTH_COL] = lengths[:, None]
    return quality, latency


def feature_table(
    terms: tuple[str, ...], cache: TermFeatureCache, shard_id: int
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Table I and Table II as (name, value) pairs for one query on one shard."""
    quality, latency = trace_feature_tensors([terms], cache)
    return (
        list(zip(QUALITY_FEATURE_NAMES, quality[0, shard_id].tolist())),
        list(zip(LATENCY_FEATURE_NAMES, latency[0, shard_id].tolist())),
    )
