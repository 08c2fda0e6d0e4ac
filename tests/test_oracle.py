"""Tests for the oracle: Cottage's policy over exact estimates."""

import pytest

from repro.cluster.cpu import equivalent_latency_ms
from repro.cluster.types import ClusterView, Decision
from repro.core import CottagePolicy, ExactEstimates
from repro.metrics.quality import GroundTruth
from repro.policies.base import BasePolicy


class ReferenceOracle(BasePolicy):
    """The oracle as its own budget walk: every top-K contributor kept,
    budgeted at the slowest one's true boosted latency (plus its queue),
    boosting exactly those that would miss it, no coordination round.
    The reference ``make_policy("oracle")`` must reproduce."""

    name = "oracle"

    def __init__(self, cluster, truth):
        self.cluster = cluster
        self.truth = truth

    def decide(self, query, view):
        contributions = self.truth.ensure(self.cluster.searcher, query).contributions_k
        keep = [sid for sid in range(view.n_shards) if contributions.get(sid, 0) > 0]
        if not keep:
            keep = [0]

        boosted_latency = {}
        current_latency = {}
        for sid in keep:
            service = self.cluster.service_time_ms(query, sid, telemetry=view.telemetry)
            queue = view.queued_predicted_ms[sid]
            current_latency[sid] = equivalent_latency_ms(
                queue, service, view.default_freq_ghz, view.default_freq_ghz
            )
            boosted_latency[sid] = equivalent_latency_ms(
                queue, service, view.default_freq_ghz, view.max_freq_ghz
            )
        budget = max(boosted_latency.values())
        overrides = {
            sid: view.max_freq_ghz
            for sid in keep
            if current_latency[sid] > budget + 1e-9
        }
        return Decision(
            shard_ids=tuple(keep),
            time_budget_ms=budget,
            frequency_overrides=overrides,
        )


@pytest.fixture(scope="module")
def oracle_summary(unit_testbed):
    trace = unit_testbed.wikipedia_trace
    return unit_testbed.summarize(trace, "oracle"), unit_testbed.truth_for(trace)


def idle_view(testbed, queue=None) -> ClusterView:
    n = testbed.cluster.n_shards
    return ClusterView(
        now_ms=0.0, n_shards=n,
        default_freq_ghz=testbed.cluster.freq_scale.default_ghz,
        max_freq_ghz=testbed.cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(queue if queue is not None else [0.0] * n),
    )


def distinct(trace):
    return list({q.terms: q for q in trace}.values())


def record_row(record):
    decision = record.decision
    return (
        record.query.query_id, record.latency_ms, record.result.fingerprint(),
        decision.shard_ids, decision.time_budget_ms, decision.frequency_overrides,
        decision.coordination_delay_ms,
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
        assert oracle.name == "oracle"
        view = idle_view(unit_testbed)
        truth = unit_testbed.truth_for(unit_testbed.wikipedia_trace)
        for query in distinct(unit_testbed.wikipedia_trace)[:15]:
            decision = oracle.decide(query, view)
            contributors = {
                sid for sid, c in truth.get(query).contributions_k.items() if c > 0
            }
            assert set(decision.shard_ids) == contributors

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
        oracle = CottagePolicy(
            ExactEstimates(cluster, truth),
            budget_slack=1.0, boost_margin=1.0, pivot_on_full_k=True,
        )
        query = unit_testbed.wikipedia_trace[0]
        decision = oracle.decide(query, idle_view(unit_testbed))
        assert query in truth and len(truth) == 1
        expected = unit_testbed.truth_for(unit_testbed.wikipedia_trace).get(query)
        assert truth.get(query) == expected
        assert set(decision.shard_ids) == (
            {sid for sid, c in expected.contributions_k.items() if c > 0}
        )


class TestMatchesTheBudgetWalk:
    """``make_policy("oracle")`` decides and runs as :class:`ReferenceOracle`."""

    @pytest.mark.parametrize("trace_name", ["wikipedia_trace", "lucene_trace"])
    def test_every_distinct_query_idle_and_loaded(self, unit_testbed, trace_name):
        trace = getattr(unit_testbed, trace_name)
        n = unit_testbed.cluster.n_shards
        oracle = unit_testbed.make_policy("oracle")
        reference = ReferenceOracle(unit_testbed.cluster, unit_testbed.truth_for(trace))
        views = [idle_view(unit_testbed), idle_view(unit_testbed, [2.5 * sid for sid in range(n)])]
        for query in distinct(trace):
            for view in views:
                got, want = oracle.decide(query, view), reference.decide(query, view)
                assert got.shard_ids == want.shard_ids
                assert got.time_budget_ms == want.time_budget_ms
                assert got.frequency_overrides == want.frequency_overrides
                assert got.coordination_delay_ms == 0.0

    @pytest.mark.parametrize("trace_name", ["wikipedia_trace", "lucene_trace"])
    def test_full_run_records_and_power(self, unit_testbed, trace_name):
        trace = getattr(unit_testbed, trace_name)
        cluster = unit_testbed.cluster
        got = unit_testbed.run(trace, "oracle")
        want = cluster.run_trace(
            trace, ReferenceOracle(cluster, unit_testbed.truth_for(trace))
        )
        assert got.policy_name == want.policy_name == "oracle"
        assert [record_row(r) for r in got.records] == [record_row(r) for r in want.records]
        assert repr(got.power) == repr(want.power)
