"""Replication layer: bit-identity with the seed cluster, hedge timing.

The load-bearing properties: one replica per shard is the seed cluster,
and a second replica only ever changes a run through the hedges it
fires — a hedged run in which no hedge fires answers every query with
the single-replica run's hits and latency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FaultSchedule, SearchCluster, Slowdown, hedge_delay_ms
from repro.cluster.replicas import HEDGE_FIXED_MS, HEDGE_FLOOR_MS
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


def adaptive_policy():
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
        n_replicas=st.integers(min_value=2, max_value=3),
        budgeted=st.booleans(),
        n_queries=st.integers(min_value=8, max_value=24),
        gap_ms=st.sampled_from([10.0, 25.0]),
    )
    def test_hedged_run_without_hedges_matches_one_replica(
        self, shards, n_replicas, budgeted, n_queries, gap_ms
    ):
        """Arrivals spaced wider than any service time never queue, so
        every primary answers before its hedge instant (the unbudgeted
        fixed delay, or a 50 ms budget minus the backup's ETA)."""
        trace = small_trace(n_queries, gap_s=gap_ms / 1000.0)

        def policy():
            return AggregationPolicy() if budgeted else ExhaustivePolicy()

        single = SearchCluster(shards, k=5).run_trace(trace, policy())
        hedged = SearchCluster(shards, k=5).run_trace(
            trace, policy(), n_replicas=n_replicas
        )
        assert hedged.hedges_issued == 0
        assert hedged.cancels_sent == 0
        assert hedged.duplicates_dropped == 0
        assert len(hedged.records) == len(single.records)
        for a, b in zip(hedged.records, single.records):
            assert a.query.query_id == b.query.query_id
            assert tuple(a.result.hits) == tuple(b.result.hits)
            assert a.latency_ms == b.latency_ms

    def test_replication_defaults_are_off(self, shards):
        trace = small_trace()
        explicit = SearchCluster(shards, k=5).run_trace(
            trace, ExhaustivePolicy(), n_replicas=1
        )
        implicit = SearchCluster(shards, k=5).run_trace(trace, ExhaustivePolicy())
        assert fingerprint(explicit) == fingerprint(implicit)

    def test_hedged_mode_with_one_replica_degrades_to_primary(self, shards):
        """A straggling primary that two replicas would hedge: with one
        replica there is no backup, and the run is the seed cluster's."""
        trace = small_trace(gap_s=0.004)
        faults = FaultSchedule(slowdowns=[Slowdown(0, 0.0, 1e9, 20.0)])
        baseline = SearchCluster(shards, k=5).run_trace(
            trace, adaptive_policy(), faults=faults
        )
        single = SearchCluster(shards, k=5).run_trace(
            trace, adaptive_policy(), faults=faults, n_replicas=1
        )
        assert fingerprint(single) == fingerprint(baseline)
        assert single.hedges_issued == 0
        pair = SearchCluster(shards, k=5).run_trace(
            trace, adaptive_policy(), faults=faults, n_replicas=2
        )
        assert pair.hedges_issued > 0

    def test_spare_replicas_add_only_static_power(self, shards):
        """R idle spares draw static watts; the dynamic energy (the part
        Fig. 14 compares across policies) is untouched.  Dynamic *power*
        is not: the unfired hedge timers stretch the run's elapsed time."""
        trace = small_trace()
        baseline = SearchCluster(shards, k=5).run_trace(trace, ExhaustivePolicy())
        replicated = SearchCluster(shards, k=5).run_trace(
            trace, ExhaustivePolicy(), n_replicas=3
        )
        assert replicated.hedges_issued == 0  # the spares stayed idle

        def dynamic_mj(run):
            power = run.power
            return (power.average_power_w - power.idle_package_w) * power.elapsed_ms

        assert dynamic_mj(replicated) == pytest.approx(dynamic_mj(baseline))
        assert replicated.power.idle_package_w > baseline.power.idle_package_w
        assert len(replicated.power.per_core_utilization) == 3 * len(
            baseline.power.per_core_utilization
        )


class TestHedgeDelay:
    def test_unbudgeted_falls_back_to_fixed_delay(self):
        assert hedge_delay_ms(None, 10.0, 0.0, 0.1) == HEDGE_FIXED_MS == 25.0

    def test_budget_aware_delay_is_budget_minus_backup_eta(self):
        # backup needs 3 (queue) + 10 (service) + 0.5 (network) = 13.5 ms,
        # so the last useful hedge instant is 20 - 13.5 = 6.5 ms in.
        assert hedge_delay_ms(20.0, 10.0, 3.0, 0.5) == pytest.approx(6.5)

    def test_hopeless_primary_hedges_at_the_floor(self):
        # Predicted service alone exceeds the budget: hedge immediately.
        assert hedge_delay_ms(5.0, 10.0, 0.0, 0.1) == HEDGE_FLOOR_MS == 0.5

    def test_busier_backup_hedges_earlier(self):
        idle = hedge_delay_ms(20.0, 8.0, 0.0, 0.1)
        busy = hedge_delay_ms(20.0, 8.0, 6.0, 0.1)
        assert busy < idle


class TestReplicationConfig:
    """The replica count is the run's one replication input."""

    def test_rejects_zero_replicas(self, shards):
        with pytest.raises(ValueError, match="at least one replica"):
            SearchCluster(shards, k=5).run_trace(
                small_trace(), ExhaustivePolicy(), n_replicas=0
            )
