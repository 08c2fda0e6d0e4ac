"""Tests for the oracle policy."""

import pytest

from repro.cluster.types import ClusterView
from repro.metrics.quality import GroundTruth
from repro.policies import OraclePolicy


@pytest.fixture(scope="module")
def oracle_summary(unit_testbed):
    trace = unit_testbed.wikipedia_trace
    return unit_testbed.summarize(trace, "oracle"), unit_testbed.truth_for(trace)


def idle_view(testbed) -> ClusterView:
    n = testbed.cluster.n_shards
    return ClusterView(
        now_ms=0.0, n_shards=n,
        default_freq_ghz=testbed.cluster.freq_scale.default_ghz,
        max_freq_ghz=testbed.cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(0.0 for _ in range(n)),
    )


class TestOracle:
    def test_perfect_quality(self, oracle_summary):
        summary, _ = oracle_summary
        assert summary.avg_precision > 0.99

    def test_dominates_cottage_latency(self, unit_testbed, oracle_summary):
        summary, _ = oracle_summary
        cottage = unit_testbed.summarize(unit_testbed.wikipedia_trace, "cottage")
        assert summary.avg_latency_ms <= cottage.avg_latency_ms * 1.05

    def test_selects_exactly_contributors(self, unit_testbed):
        oracle = unit_testbed.make_policy("oracle")
        assert isinstance(oracle, OraclePolicy)
        view = idle_view(unit_testbed)
        truth = unit_testbed.truth_for(unit_testbed.wikipedia_trace)
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:15]:
            decision = oracle.decide(query, view)
            contributors = {
                sid for sid, c in truth.get(query).contributions_k.items() if c > 0
            }
            assert set(decision.shard_ids) == (contributors or {0})

    def test_budget_covers_kept(self, unit_testbed):
        oracle = unit_testbed.make_policy("oracle")
        query = unit_testbed.wikipedia_trace[0]
        decision = oracle.decide(query, idle_view(unit_testbed))
        boost = unit_testbed.cluster.freq_scale.boost_ratio
        for sid in decision.shard_ids:
            boosted = unit_testbed.cluster.service_time_ms(query, sid) / boost
            assert boosted <= decision.time_budget_ms + 1e-9

    def test_fills_its_truth_on_demand(self, unit_testbed):
        """No prior ``truth_for``: deciding a query fills its ground truth."""
        cluster = unit_testbed.cluster
        truth = GroundTruth(k=cluster.k)
        oracle = OraclePolicy(cluster, truth)
        query = unit_testbed.wikipedia_trace[0]
        decision = oracle.decide(query, idle_view(unit_testbed))
        assert query in truth and len(truth) == 1
        expected = unit_testbed.truth_for(unit_testbed.wikipedia_trace).get(query)
        assert truth.get(query) == expected
        assert set(decision.shard_ids) == (
            {sid for sid, c in expected.contributions_k.items() if c > 0} or {0}
        )
