"""Unit/integration tests for the Cottage policy, its sources and variants.

These use the session-scoped trained unit testbed: Cottage requires a
trained predictor bank, and its decisions are only meaningful against the
real index statistics.
"""

import pytest

from repro.cluster.types import ClusterView
from repro.core import CottageISNPolicy, CottagePolicy, TailyEstimates
from repro.retrieval import Query


def idle_view(testbed, queue=None):
    n = testbed.cluster.n_shards
    return ClusterView(
        now_ms=0.0,
        n_shards=n,
        default_freq_ghz=testbed.cluster.freq_scale.default_ghz,
        max_freq_ghz=testbed.cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(queue if queue is not None else [0.0] * n),
    )


@pytest.fixture(scope="module")
def cottage(unit_testbed):
    return CottagePolicy(unit_testbed.bank, network=unit_testbed.cluster.network)


class TestCottageDecide:
    def test_produces_budget_and_subset(self, unit_testbed, cottage):
        query = unit_testbed.wikipedia_trace[0]
        decision = cottage.decide(query, idle_view(unit_testbed))
        assert decision.shard_ids
        assert decision.time_budget_ms is not None and decision.time_budget_ms > 0
        assert decision.coordination_delay_ms > 0
        assert set(decision.frequency_overrides) <= set(decision.shard_ids)

    def test_budget_covers_kept_boosted_latencies(self, unit_testbed, cottage):
        query = unit_testbed.wikipedia_trace[0]
        view = idle_view(unit_testbed)
        inputs = {i.shard_id: i for i in cottage.budget_inputs(query, view)}
        decision = cottage.decide(query, view)
        for sid in decision.shard_ids:
            assert (
                inputs[sid].latency_boosted_ms
                <= decision.time_budget_ms + 1e-9
            )

    def test_queue_raises_equivalent_latency(self, unit_testbed, cottage):
        query = unit_testbed.wikipedia_trace[0]
        idle = cottage.budget_inputs(query, idle_view(unit_testbed))
        n = unit_testbed.cluster.n_shards
        busy = cottage.budget_inputs(
            query, idle_view(unit_testbed, queue=[50.0] * n)
        )
        for a, b in zip(idle, busy):
            assert b.latency_current_ms > a.latency_current_ms
            assert b.latency_boosted_ms > a.latency_boosted_ms

    def test_decide_is_algorithm_1_over_budget_inputs(self, unit_testbed, cottage):
        # decide runs stage 1 once per term tuple and stage 2 per call;
        # the public one-call path over the same tuples must agree.
        from repro.core import determine_time_budget

        n = unit_testbed.cluster.n_shards
        queues = [[0.0] * n, [0.5 * sid for sid in range(n)], [7.0] + [0.0] * (n - 1)]
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:15]:
            for queue in queues:
                view = idle_view(unit_testbed, queue=queue)
                expected = determine_time_budget(
                    cottage.budget_inputs(query, view), boost_margin=cottage.boost_margin
                )
                decision = cottage.decide(query, view)
                if not expected.selected:
                    continue  # the one-shard fallback
                assert decision.shard_ids == expected.selected
                assert decision.time_budget_ms == (
                    expected.time_budget_ms * cottage.budget_slack
                )
                assert set(decision.frequency_overrides) == set(expected.boosted)

    def test_negative_queue_rejected(self, unit_testbed, cottage):
        n = unit_testbed.cluster.n_shards
        view = idle_view(unit_testbed, queue=[-1.0] + [0.0] * (n - 1))
        with pytest.raises(ValueError, match="negative"):
            cottage.decide(unit_testbed.wikipedia_trace[0], view)

    def test_budget_slack_scales_budget(self, unit_testbed):
        query = unit_testbed.wikipedia_trace[0]
        tight = CottagePolicy(unit_testbed.bank, budget_slack=1.0)
        loose = CottagePolicy(unit_testbed.bank, budget_slack=1.5)
        view = idle_view(unit_testbed)
        budget_tight = tight.decide(query, view).time_budget_ms
        budget_loose = loose.decide(query, view).time_budget_ms
        assert budget_loose == pytest.approx(budget_tight * 1.5)

    def test_confidence_gate_keeps_more(self, unit_testbed):
        argmax = CottagePolicy(unit_testbed.bank, cut_confidence=0.0,
                               half_cut_confidence=0.0)
        gated = CottagePolicy(unit_testbed.bank, cut_confidence=0.99,
                              half_cut_confidence=0.99)
        view = idle_view(unit_testbed)
        total_argmax = total_gated = 0
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:20]:
            total_argmax += len(argmax.decide(query, view).shard_ids)
            total_gated += len(gated.decide(query, view).shard_ids)
        assert total_gated >= total_argmax

    def test_disable_boost_removes_overrides(self, unit_testbed):
        policy = CottagePolicy(unit_testbed.bank, enable_boost=False)
        view = idle_view(unit_testbed)
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:10]:
            assert policy.decide(query, view).frequency_overrides == {}

    def test_pivot_on_full_k_never_cheaper_budget(self, unit_testbed):
        paper = CottagePolicy(unit_testbed.bank)
        conservative = CottagePolicy(unit_testbed.bank, pivot_on_full_k=True)
        view = idle_view(unit_testbed)
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:10]:
            a = paper.decide(query, view)
            b = conservative.decide(query, view)
            if a.time_budget_ms and b.time_budget_ms:
                assert b.time_budget_ms >= a.time_budget_ms - 1e-9

    def test_untrained_bank_rejected(self, unit_testbed):
        from repro.predictors import PredictorBank

        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(ValueError):
            CottagePolicy(bank)

    def test_parameter_validation(self, unit_testbed):
        with pytest.raises(ValueError):
            CottagePolicy(unit_testbed.bank, budget_slack=0.5)
        with pytest.raises(ValueError):
            CottagePolicy(unit_testbed.bank, cut_confidence=1.5)
        with pytest.raises(ValueError, match="boost_margin"):
            CottagePolicy(unit_testbed.bank, boost_margin=0.0)


def taily_policy(testbed):
    return CottagePolicy(TailyEstimates(testbed.bank, testbed.taily_estimator))


class TestCottageWithoutML:
    def test_uses_gamma_counts(self, unit_testbed):
        policy = taily_policy(unit_testbed)
        assert policy.name == "cottage_without_ml"
        query = unit_testbed.wikipedia_trace[0]
        inputs = policy.budget_inputs(query, idle_view(unit_testbed))
        estimator, k = unit_testbed.taily_estimator, unit_testbed.bank.k
        assert [i.quality_k for i in inputs] == estimator.quality_counts(query.terms, k)
        assert [i.quality_half_k for i in inputs] == estimator.quality_counts(
            query.terms, k // 2
        )

    def test_decides(self, unit_testbed):
        policy = taily_policy(unit_testbed)
        decision = policy.decide(unit_testbed.wikipedia_trace[0], idle_view(unit_testbed))
        assert decision.shard_ids

    def test_untrained_bank_rejected(self, unit_testbed):
        from repro.predictors import PredictorBank

        untrained = PredictorBank(unit_testbed.cluster)
        with pytest.raises(ValueError):
            CottagePolicy(TailyEstimates(untrained, unit_testbed.taily_estimator))


@pytest.mark.parametrize("name", ["cottage", "cottage_without_ml", "oracle"])
def test_all_zero_estimates_run_the_lowest_shard(unit_testbed, name):
    """A query no shard holds: every source's Q^K is a confident zero, and
    each falls back the same way — shard 0, no budget, no boost."""
    policy = unit_testbed.make_policy(name)
    assert policy.name == name
    query = Query(query_id=10**6, terms=("no_shard_holds_this",))
    view = idle_view(unit_testbed)
    assert all(i.quality_k == 0 for i in policy.budget_inputs(query, view))
    decision = policy.decide(query, view)
    assert decision.shard_ids == (0,)
    assert decision.time_budget_ms is None
    assert decision.frequency_overrides == {}
    assert set(decision.predicted_service_ms) == {0}


class TestCottageISN:
    def test_no_budget_ever(self, unit_testbed):
        policy = CottageISNPolicy(unit_testbed.bank)
        view = idle_view(unit_testbed)
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:10]:
            decision = policy.decide(query, view)
            assert decision.time_budget_ms is None
            assert decision.shard_ids

    def test_local_boost_when_backlogged(self, unit_testbed):
        policy = CottageISNPolicy(unit_testbed.bank, boost_over_average=1.0)
        n = unit_testbed.cluster.n_shards
        query = unit_testbed.wikipedia_trace[0]
        backlogged = policy.decide(
            query, idle_view(unit_testbed, queue=[1000.0] * n)
        )
        # Every participating ISN sees a huge local queue and boosts itself.
        assert set(backlogged.frequency_overrides) == set(backlogged.shard_ids)

    def test_observe_updates_running_mean(self, unit_testbed):
        from repro.cluster.types import Decision, QueryRecord, ShardOutcome
        from repro.retrieval import Query, SearchResult

        policy = CottageISNPolicy(unit_testbed.bank)
        before = policy._mean_service_ms[0]
        record = QueryRecord(
            query=Query(query_id=0, terms=("x",)),
            arrival_ms=0.0,
            latency_ms=5.0,
            result=SearchResult(),
            decision=Decision(shard_ids=(0,)),
            outcomes=[ShardOutcome(shard_id=0, service_ms=99.0, completed=True)],
        )
        policy.observe(record)
        assert policy._mean_service_ms[0] != before
