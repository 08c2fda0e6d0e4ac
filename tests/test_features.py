"""Unit tests for Table I/II feature extraction (``trace_feature_tensors``)."""

import numpy as np
import pytest

from repro.index.term_stats import TermStatsIndex
from repro.predictors import (
    LATENCY_FEATURE_NAMES,
    QUALITY_FEATURE_NAMES,
    TermFeatureCache,
    feature_table,
    trace_feature_tensors,
)


@pytest.fixture(scope="module")
def stats(shards):
    return TermStatsIndex(shards[0], k=10)


@pytest.fixture(scope="module")
def cache(shards):
    return TermFeatureCache([TermStatsIndex(shard, k=10) for shard in shards])


@pytest.fixture(scope="module")
def two_terms(shards):
    terms = sorted(
        shards[0].terms(), key=lambda t: shards[0].doc_freq(t), reverse=True
    )
    return terms[0], terms[1]


def quality_vector(terms, cache):
    """Shard 0's Table-I vector for one query."""
    return trace_feature_tensors([tuple(terms)], cache)[0][0, 0]


def latency_vector(terms, cache):
    """Shard 0's Table-II vector for one query."""
    return trace_feature_tensors([tuple(terms)], cache)[1][0, 0]


class TestQualityFeatures:
    def test_dimension_matches_table1(self, cache, two_terms):
        quality, _ = trace_feature_tensors([two_terms[:1], two_terms], cache)
        assert quality.shape == (2, cache.n_shards, len(QUALITY_FEATURE_NAMES))
        assert len(QUALITY_FEATURE_NAMES) == 10  # Table I has 10 rows

    def test_single_term_matches_stats(self, stats, cache, two_terms):
        term = two_terms[0]
        term_stats = stats.get(term)
        named = dict(zip(QUALITY_FEATURE_NAMES, quality_vector([term], cache)))
        assert named["max_score"] == pytest.approx(term_stats.max_score)
        assert named["posting_list_length"] == term_stats.posting_length
        assert named["arithmetic_average_score"] == pytest.approx(term_stats.mean)

    def test_max_aggregation(self, cache, two_terms):
        a, b = two_terms
        combined = quality_vector([a, b], cache)
        va = quality_vector([a], cache)
        vb = quality_vector([b], cache)
        assert np.array_equal(combined, np.maximum(va, vb))

    def test_empty_query_rejected(self, cache, two_terms):
        with pytest.raises(ValueError, match="query has no terms"):
            trace_feature_tensors([two_terms, ()], cache)

    def test_unknown_term_all_zero_but_idf(self, cache):
        quality, latency = trace_feature_tensors([("zzz-unknown",)], cache)
        assert not quality.any()
        idf = LATENCY_FEATURE_NAMES.index("idf")
        length = LATENCY_FEATURE_NAMES.index("query_length")
        others = [i for i in range(len(LATENCY_FEATURE_NAMES)) if i not in (idf, length)]
        assert not latency[..., others].any()
        assert (latency[..., length] == 1.0).all()


class TestLatencyFeatures:
    def test_dimension_matches_table2(self, cache, two_terms):
        _, latency = trace_feature_tensors([two_terms[:1], two_terms], cache)
        assert latency.shape == (2, cache.n_shards, len(LATENCY_FEATURE_NAMES))
        assert len(LATENCY_FEATURE_NAMES) == 15  # Table II has 15 rows

    def test_query_length_passes_through(self, cache, two_terms):
        idx = LATENCY_FEATURE_NAMES.index("query_length")
        _, latency = trace_feature_tensors(
            [two_terms[:1], two_terms, (*two_terms, "zzz-unknown")], cache
        )
        assert (latency[0, :, idx] == 1.0).all()
        assert (latency[1, :, idx] == 2.0).all()
        assert (latency[2, :, idx] == 3.0).all()

    def test_posting_length_is_max_over_terms(self, stats, cache, two_terms):
        a, b = two_terms
        idx = LATENCY_FEATURE_NAMES.index("posting_list_length")
        assert latency_vector([a, b], cache)[idx] == max(
            stats.get(a).posting_length, stats.get(b).posting_length
        )


class TestFeatureTable:
    def test_quality_table(self, cache, two_terms):
        table, _ = feature_table(two_terms[:1], cache, 0)
        assert [name for name, _ in table] == list(QUALITY_FEATURE_NAMES)
        assert [value for _, value in table] == quality_vector(two_terms[:1], cache).tolist()

    def test_latency_table(self, cache, two_terms):
        _, table = feature_table(two_terms[:1], cache, 0)
        assert [name for name, _ in table] == list(LATENCY_FEATURE_NAMES)
        assert [value for _, value in table] == latency_vector(two_terms[:1], cache).tolist()
