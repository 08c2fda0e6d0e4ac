"""Unit tests for the baseline selection policies."""

import pytest

from repro.cluster.types import ClusterView, Decision, QueryRecord
from repro.index import CentralSampleIndex, Document, partition_round_robin
from repro.index.term_stats import TermStatsIndex
from repro.policies import (
    AggregationPolicy,
    ExhaustivePolicy,
    RankSPolicy,
    TailyPolicy,
)
from repro.policies.taily import MIN_EXPECTED_DOCS
from repro.predictors import TailyQualityEstimator
from repro.retrieval import Query, SearchResult
from repro.text import WhitespaceAnalyzer


def view(n_shards=4, queue=None):
    return ClusterView(
        now_ms=0.0,
        n_shards=n_shards,
        default_freq_ghz=2.1,
        max_freq_ghz=2.7,
        queued_predicted_ms=tuple(queue or [0.0] * n_shards),
    )


def record(latency_ms, query_id=0):
    return QueryRecord(
        query=Query(query_id=query_id, terms=("t1",)),
        arrival_ms=0.0,
        latency_ms=latency_ms,
        result=SearchResult(),
        decision=Decision(shard_ids=(0,)),
    )


class TestExhaustive:
    def test_selects_everything_no_budget(self):
        decision = ExhaustivePolicy().decide(Query(query_id=0, terms=("t1",)), view())
        assert decision.shard_ids == (0, 1, 2, 3)
        assert decision.time_budget_ms is None
        assert decision.frequency_overrides == {}


class TestAggregation:
    def test_initial_budget_used(self):
        policy = AggregationPolicy(initial_budget_ms=42.0)
        decision = policy.decide(Query(query_id=0, terms=("t1",)), view())
        assert decision.time_budget_ms == 42.0
        assert decision.shard_ids == (0, 1, 2, 3)

    def test_budget_adapts_to_epoch_percentile(self):
        policy = AggregationPolicy(
            budget_percentile=50.0, epoch_queries=4, initial_budget_ms=100.0
        )
        for latency in (10.0, 20.0, 30.0, 40.0):
            policy.observe(record(latency))
        assert policy.budget_ms == pytest.approx(25.0)

    def test_no_update_mid_epoch(self):
        policy = AggregationPolicy(epoch_queries=10, initial_budget_ms=100.0)
        for latency in (1.0, 2.0, 3.0):
            policy.observe(record(latency))
        assert policy.budget_ms == 100.0

    def test_budget_floor(self):
        policy = AggregationPolicy(epoch_queries=2, initial_budget_ms=50.0)
        policy.observe(record(0.0))
        policy.observe(record(0.0))
        assert policy.budget_ms >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregationPolicy(budget_percentile=0.0)
        with pytest.raises(ValueError):
            AggregationPolicy(epoch_queries=0)
        with pytest.raises(ValueError):
            AggregationPolicy(initial_budget_ms=0.0)


@pytest.fixture(scope="module")
def taily_estimator(shards):
    return TailyQualityEstimator([TermStatsIndex(s, k=5) for s in shards])


class TestTaily:
    def test_selects_shards_with_expected_docs(self, taily_estimator, shards):
        policy = TailyPolicy(taily_estimator)
        term = max(shards[0].terms(), key=lambda t: shards[0].doc_freq(t))
        decision = policy.decide(Query(query_id=0, terms=(term,)), view())
        expected = taily_estimator.estimate((term,))
        assert decision.shard_ids == tuple(
            sid for sid, docs in enumerate(expected) if docs >= MIN_EXPECTED_DOCS
        )
        assert decision.time_budget_ms is None

    def test_fallback_keeps_best_shard(self, taily_estimator):
        # No shard holds the term, so none clears the cutoff.
        policy = TailyPolicy(taily_estimator)
        decision = policy.decide(Query(query_id=0, terms=("zzz-missing",)), view())
        assert decision.shard_ids == (0,)

    def test_decisions_cached(self, taily_estimator):
        policy = TailyPolicy(taily_estimator)
        query = Query(query_id=0, terms=("t1",))
        first = policy.decide(query, view())
        second = policy.decide(Query(query_id=9, terms=("t1",)), view())
        assert first.shard_ids == second.shard_ids
        assert ("t1",) in taily_estimator._expected


@pytest.fixture(scope="module")
def csi():
    docs = [
        Document(doc_id=i, text=f"shared topic{i % 4} extra{i}") for i in range(80)
    ]
    return CentralSampleIndex.build(
        partition_round_robin(docs, 4), analyzer=WhitespaceAnalyzer(),
    )


class TestRankS:
    def test_votes_decay_with_rank(self, csi):
        policy = RankSPolicy(csi, decay_base=2.0, sample_depth=20)
        votes, cost_ms = policy.shard_votes(Query(query_id=0, terms=("shared",)))
        assert votes and cost_ms > 0
        assert all(v > 0 for v in votes.values())

    def test_threshold_filters(self, csi):
        query = Query(query_id=0, terms=("shared",))
        lenient = RankSPolicy(csi, vote_threshold=0.01).decide(query, view())
        strict = RankSPolicy(csi, vote_threshold=0.45).decide(query, view())
        assert set(strict.shard_ids) <= set(lenient.shard_ids)

    def test_unknown_terms_fall_back_to_exhaustive(self, csi):
        policy = RankSPolicy(csi)
        decision = policy.decide(Query(query_id=0, terms=("zzz-none",)), view())
        assert decision.shard_ids == (0, 1, 2, 3)

    def test_csi_cost_charged(self, csi):
        policy = RankSPolicy(csi)
        decision = policy.decide(Query(query_id=0, terms=("shared",)), view())
        assert decision.coordination_delay_ms > 0

    def test_votes_cached(self, csi):
        policy = RankSPolicy(csi)
        query = Query(query_id=0, terms=("shared",))
        assert policy.shard_votes(query) is policy.shard_votes(query)

    def test_validation(self, csi):
        with pytest.raises(ValueError):
            RankSPolicy(csi, decay_base=1.0)
        with pytest.raises(ValueError):
            RankSPolicy(csi, vote_threshold=0.0)
        with pytest.raises(ValueError):
            RankSPolicy(csi, sample_depth=0)
