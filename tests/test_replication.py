"""Replication layer: bit-identity with the seed cluster, selectors, hedging.

The load-bearing property: replication with the ``static`` selector in
``primary`` mode is *pure spare capacity* — a zero-fault run is
bit-identical (hits, scores, tie order, latencies, event counts) to the
single-replica cluster at any replica count.  Everything tail-tolerant
is opt-in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    LeastLoadedSelector,
    ReplicationConfig,
    SearchCluster,
    SeededSelector,
    StaticSelector,
    hedge_delay_ms,
    make_selector,
)
from repro.policies import AggregationPolicy, ExhaustivePolicy
from repro.retrieval import Query, QueryTrace


def small_trace(n=20, gap_s=0.01):
    terms_pool = [("t1",), ("t2", "t12"), ("t5",), ("t11", "t3"), ("t21",)]
    return QueryTrace(
        name="test",
        queries=[
            Query(
                query_id=i,
                terms=terms_pool[i % len(terms_pool)],
                arrival_time=i * gap_s,
            )
            for i in range(n)
        ],
    )


def make_policy(name):
    if name == "exhaustive":
        return ExhaustivePolicy()
    return AggregationPolicy(budget_percentile=60.0, epoch_queries=8)


def fingerprint(run):
    """Everything a replication-transparent run must reproduce exactly.

    Package power is deliberately *not* included: spare replicas draw
    static power by construction (see the dedicated test below).
    """
    return (
        tuple(
            (
                r.query.query_id,
                r.arrival_ms,
                r.latency_ms,
                tuple(r.result.hits),  # doc ids AND scores AND tie order
                r.decision.shard_ids,
                r.decision.time_budget_ms,
                r.n_counted,
                r.n_dropped_shards,
            )
            for r in run.records
        ),
        run.events_processed,
        run.clamped_schedules,
        run.searcher_computations,
    )


class TestBitIdentity:
    @settings(deadline=None)
    @given(
        n_replicas=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(["exhaustive", "aggregation"]),
        n_queries=st.integers(min_value=8, max_value=24),
        gap_ms=st.sampled_from([2.0, 8.0, 25.0]),
    )
    def test_primary_mode_identical_to_seed_cluster(
        self, shards, n_replicas, policy, n_queries, gap_ms
    ):
        trace = small_trace(n_queries, gap_s=gap_ms / 1000.0)
        baseline = SearchCluster(shards, k=5).run_trace(trace, make_policy(policy))
        replicated = SearchCluster(shards, k=5).run_trace(
            trace,
            make_policy(policy),
            replication=ReplicationConfig(n_replicas=n_replicas),
        )
        assert fingerprint(replicated) == fingerprint(baseline)
        # Spares never touched: no tail-tolerance machinery fired.
        assert replicated.hedges_issued == 0
        assert replicated.cancels_sent == 0
        assert replicated.duplicates_dropped == 0

    def test_replication_defaults_are_off(self, shards):
        trace = small_trace()
        explicit = SearchCluster(shards, k=5).run_trace(
            trace, ExhaustivePolicy(), replication=ReplicationConfig()
        )
        implicit = SearchCluster(shards, k=5).run_trace(trace, ExhaustivePolicy())
        assert fingerprint(explicit) == fingerprint(implicit)

    def test_hedged_mode_with_one_replica_degrades_to_primary(self, shards):
        trace = small_trace()
        baseline = SearchCluster(shards, k=5).run_trace(trace, ExhaustivePolicy())
        hedged = SearchCluster(shards, k=5).run_trace(
            trace,
            ExhaustivePolicy(),
            replication=ReplicationConfig(n_replicas=1, mode="hedged"),
        )
        assert fingerprint(hedged) == fingerprint(baseline)
        assert hedged.hedges_issued == 0

    def test_spare_replicas_add_only_static_power(self, shards):
        """R idle spares draw static watts; the dynamic component (the
        part Fig. 14 compares across policies) is untouched."""
        trace = small_trace()
        baseline = SearchCluster(shards, k=5).run_trace(trace, ExhaustivePolicy())
        replicated = SearchCluster(shards, k=5).run_trace(
            trace, ExhaustivePolicy(), replication=ReplicationConfig(n_replicas=3)
        )
        assert replicated.power.dynamic_power_w == pytest.approx(
            baseline.power.dynamic_power_w
        )
        assert replicated.power.idle_package_w > baseline.power.idle_package_w
        assert len(replicated.power.per_core_utilization) == 3 * len(
            baseline.power.per_core_utilization
        )

    def test_tied_mode_zero_faults_same_answers(self, shards):
        """Tied dispatch races identical replicas: answers (hits, scores,
        tie order) match the seed cluster; only the race accounting moves."""
        trace = small_trace()
        baseline = SearchCluster(shards, k=5).run_trace(trace, ExhaustivePolicy())
        tied = SearchCluster(shards, k=5).run_trace(
            trace,
            ExhaustivePolicy(),
            replication=ReplicationConfig(n_replicas=2, mode="tied"),
        )
        assert len(tied.records) == len(baseline.records)
        for a, b in zip(tied.records, baseline.records):
            assert tuple(a.result.hits) == tuple(b.result.hits)
        # Each tied pair resolved exactly once.
        assert all(r.n_counted <= len(shards) for r in tied.records)


class _StubISN:
    def __init__(self, queued):
        self.queued_work_default_ms = queued


class TestSelectors:
    def test_static_is_identity(self):
        group = [_StubISN(5.0), _StubISN(0.0), _StubISN(2.0)]
        selector = StaticSelector()
        assert selector.order(0, group, 0.0) == (0, 1, 2)
        assert selector.queue_view(group) == 5.0

    def test_least_loaded_prefers_smallest_backlog(self):
        group = [_StubISN(5.0), _StubISN(0.5), _StubISN(2.0)]
        selector = LeastLoadedSelector()
        assert selector.order(0, group, 0.0) == (1, 2, 0)
        assert selector.queue_view(group) == 0.5

    def test_least_loaded_ties_to_lowest_replica(self):
        group = [_StubISN(1.0), _StubISN(1.0)]
        assert LeastLoadedSelector().order(0, group, 0.0) == (0, 1)

    def test_seeded_selector_is_a_pure_function_of_seed(self):
        group = [_StubISN(0.0) for _ in range(4)]
        a = make_selector(ReplicationConfig(n_replicas=4, selector="seeded", seed=7))
        b = make_selector(ReplicationConfig(n_replicas=4, selector="seeded", seed=7))
        orders_a = [a.order(sid, group, 0.0) for sid in range(32)]
        orders_b = [b.order(sid, group, 0.0) for sid in range(32)]
        assert orders_a == orders_b
        assert any(order[0] != 0 for order in orders_a)  # actually rotates

    def test_seeded_order_is_a_rotation(self):
        group = [_StubISN(0.0) for _ in range(4)]
        selector = SeededSelector.__new__(SeededSelector)
        import random

        selector.rng = random.Random(3)
        for _ in range(16):
            order = selector.order(0, group, 0.0)
            assert sorted(order) == [0, 1, 2, 3]
            assert order == tuple((order[0] + i) % 4 for i in range(4))

    def test_seeded_queue_view_reads_without_drawing(self):
        group = [_StubISN(2.0), _StubISN(4.0)]
        selector = make_selector(
            ReplicationConfig(n_replicas=2, selector="seeded", seed=1)
        )
        state = selector.rng.getstate()
        assert selector.queue_view(group) == pytest.approx(3.0)
        assert selector.rng.getstate() == state  # no RNG perturbation


class TestHedgeDelay:
    CFG = ReplicationConfig(
        n_replicas=2, mode="hedged", hedge_floor_ms=0.5, hedge_fixed_ms=25.0
    )

    def test_unbudgeted_falls_back_to_fixed_delay(self):
        assert hedge_delay_ms(None, 10.0, 0.0, 0.1, self.CFG) == 25.0

    def test_budget_aware_delay_is_budget_minus_backup_eta(self):
        # backup needs 3 (queue) + 10 (service) + 0.5 (network) = 13.5 ms,
        # so the last useful hedge instant is 20 - 13.5 = 6.5 ms in.
        assert hedge_delay_ms(20.0, 10.0, 3.0, 0.5, self.CFG) == pytest.approx(6.5)

    def test_hopeless_primary_hedges_at_the_floor(self):
        # Predicted service alone exceeds the budget: hedge immediately.
        assert hedge_delay_ms(5.0, 10.0, 0.0, 0.1, self.CFG) == 0.5

    def test_busier_backup_hedges_earlier(self):
        idle = hedge_delay_ms(20.0, 8.0, 0.0, 0.1, self.CFG)
        busy = hedge_delay_ms(20.0, 8.0, 6.0, 0.1, self.CFG)
        assert busy < idle


class TestReplicationConfig:
    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            ReplicationConfig(n_replicas=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ReplicationConfig(mode="speculative")

    def test_rejects_unknown_selector(self):
        with pytest.raises(ValueError):
            ReplicationConfig(selector="round_robin")

    def test_rejects_negative_hedge_floor(self):
        with pytest.raises(ValueError):
            ReplicationConfig(hedge_floor_ms=-1.0)
