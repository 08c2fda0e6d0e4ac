"""Tests for fault injection and graceful degradation."""

import random

import numpy as np
import pytest

from repro.cluster import FaultSchedule, Outage, SearchCluster, Slowdown
from repro.policies import ExhaustivePolicy
from repro.retrieval import Query, QueryTrace


class TestFaultSchedule:
    def test_is_down_inside_interval(self):
        schedule = FaultSchedule.single(2, 100.0, 200.0)
        assert not schedule.is_down(2, 99.9)
        assert schedule.is_down(2, 100.0)
        assert schedule.is_down(2, 150.0)
        assert not schedule.is_down(2, 200.0)  # half-open

    def test_other_shards_unaffected(self):
        schedule = FaultSchedule.single(2, 100.0, 200.0)
        assert not schedule.is_down(1, 150.0)

    def test_multiple_intervals(self):
        schedule = FaultSchedule(
            outages=[Outage(0, 10.0, 20.0), Outage(0, 50.0, 60.0)]
        )
        assert schedule.is_down(0, 15.0)
        assert not schedule.is_down(0, 30.0)
        assert schedule.is_down(0, 55.0)
        for start, end in ((10.0, 20.0), (50.0, 60.0)):
            assert not schedule.is_down(0, np.nextafter(start, -np.inf))
            assert schedule.is_down(0, start)
            assert schedule.is_down(0, np.nextafter(end, -np.inf))
            assert not schedule.is_down(0, end)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(outages=[Outage(0, 10.0, 30.0), Outage(0, 20.0, 40.0)])

    def test_validation(self):
        with pytest.raises(ValueError):
            Outage(0, 20.0, 10.0)
        with pytest.raises(ValueError):
            Outage(-1, 0.0, 1.0)


class TestPerReplicaFaults:
    """Replica-addressed outages and slowdowns (the replication axis)."""

    def test_replica_outage_spares_the_siblings(self):
        schedule = FaultSchedule(outages=[Outage(0, 0.0, 100.0, replica_id=1)])
        assert schedule.is_down(0, 50.0, replica_id=1)
        assert not schedule.is_down(0, 50.0, replica_id=0)
        assert not schedule.is_down(0, 50.0)  # default replica 0

    def test_whole_shard_outage_covers_every_replica(self):
        schedule = FaultSchedule.single(0, 0.0, 100.0)
        for rid in range(3):
            assert schedule.is_down(0, 50.0, replica_id=rid)

    def test_slowdown_factor_defaults_to_unity(self):
        assert FaultSchedule().slowdown_factor(0, 10.0) == 1.0

    def test_slowdown_window_and_replica_addressing(self):
        schedule = FaultSchedule.straggler(0, 10.0, 20.0, factor=4.0, replica_id=1)
        assert schedule.slowdown_factor(0, 15.0, replica_id=1) == 4.0
        assert schedule.slowdown_factor(0, 15.0, replica_id=0) == 1.0
        assert schedule.slowdown_factor(0, 25.0, replica_id=1) == 1.0  # half-open
        assert schedule.slowdown_factor(1, 15.0, replica_id=1) == 1.0

    def test_shard_and_replica_slowdowns_compose_multiplicatively(self):
        # A rack-wide throttle on top of a replica-local GC pause.
        schedule = FaultSchedule(
            slowdowns=[
                Slowdown(0, 0.0, 100.0, 2.0),
                Slowdown(0, 0.0, 100.0, 3.0, replica_id=0),
            ]
        )
        assert schedule.slowdown_factor(0, 50.0, replica_id=0) == 6.0
        assert schedule.slowdown_factor(0, 50.0, replica_id=1) == 2.0

    def test_same_replica_overlap_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(
                slowdowns=[
                    Slowdown(0, 0.0, 30.0, 2.0, replica_id=1),
                    Slowdown(0, 20.0, 40.0, 3.0, replica_id=1),
                ]
            )

    def test_different_replicas_may_overlap(self):
        schedule = FaultSchedule(
            slowdowns=[
                Slowdown(0, 0.0, 30.0, 2.0, replica_id=0),
                Slowdown(0, 10.0, 40.0, 3.0, replica_id=1),
            ]
        )
        assert schedule.slowdown_factor(0, 15.0, replica_id=0) == 2.0
        assert schedule.slowdown_factor(0, 15.0, replica_id=1) == 3.0

    def test_slowdown_validation(self):
        with pytest.raises(ValueError):
            Slowdown(0, 0.0, 10.0, factor=0.0)
        with pytest.raises(ValueError):
            Slowdown(0, 10.0, 5.0, factor=2.0)
        with pytest.raises(ValueError):
            Slowdown(0, 0.0, 10.0, factor=2.0, replica_id=-1)

    def test_downtime_filters_by_replica(self):
        schedule = FaultSchedule(
            outages=[
                Outage(0, 0.0, 10.0),  # every replica
                Outage(0, 20.0, 25.0, replica_id=1),
            ]
        )
        before_end = np.nextafter(25.0, -np.inf)
        for replica_id, down in ((0, False), (1, True)):
            # The all-replica window covers every replica, edge to edge.
            assert schedule.is_down(0, 0.0, replica_id)
            assert schedule.is_down(0, np.nextafter(10.0, -np.inf), replica_id)
            assert not schedule.is_down(0, 10.0, replica_id)
            # The replica-1 window covers replica 1 only.
            assert not schedule.is_down(0, np.nextafter(20.0, -np.inf), replica_id)
            assert schedule.is_down(0, 20.0, replica_id) is down
            assert schedule.is_down(0, before_end, replica_id) is down
            assert not schedule.is_down(0, 25.0, replica_id)


class TestRandomTimelines:
    """The random_* constructors are pure functions of their seed."""

    def test_random_flaky_is_seed_deterministic(self):
        a = FaultSchedule.random_flaky(0, 1000.0, random.Random(42))
        b = FaultSchedule.random_flaky(0, 1000.0, random.Random(42))
        assert a.outages == b.outages
        c = FaultSchedule.random_flaky(0, 1000.0, random.Random(43))
        assert a.outages != c.outages

    def test_random_flaky_stays_inside_the_horizon(self):
        schedule = FaultSchedule.random_flaky(
            2, 500.0, random.Random(7), mean_up_ms=40.0, mean_down_ms=20.0
        )
        assert schedule.outages
        for outage in schedule.outages:
            assert outage.shard_id == 2
            assert 0.0 <= outage.start_ms < outage.end_ms <= 500.0

    def test_random_stragglers_is_seed_deterministic(self):
        a = FaultSchedule.random_stragglers(4, 1000.0, random.Random(5), n_replicas=2)
        b = FaultSchedule.random_stragglers(4, 1000.0, random.Random(5), n_replicas=2)
        assert a.slowdowns == b.slowdowns

    def test_random_stragglers_never_overlap_per_replica(self):
        # Valid for any draw: construction pushes same-replica events apart
        # (an overlap would raise in FaultSchedule.__post_init__).
        for seed in range(8):
            schedule = FaultSchedule.random_stragglers(
                2, 300.0, random.Random(seed), n_events=12, n_replicas=2
            )
            assert len(schedule.slowdowns) == 12
            for slowdown in schedule.slowdowns:
                assert 0 <= slowdown.replica_id < 2


@pytest.fixture()
def cluster(shards):
    return SearchCluster(shards, k=5)


def trace(n=20, gap_s=0.05):
    return QueryTrace(
        name="faulty",
        queries=[
            Query(query_id=i, terms=("t1", "t12"), arrival_time=i * gap_s)
            for i in range(n)
        ],
    )


class TestFaultyRuns:
    def test_exhaustive_with_timeout_still_answers(self, cluster):
        faults = FaultSchedule.single(0, 0.0, 1e9)  # shard 0 dead forever
        run = cluster.run_trace(
            trace(), ExhaustivePolicy(), faults=faults, response_timeout_ms=100.0
        )
        assert len(run.records) == 20
        # Every answer misses shard 0 but includes the other three.
        for record in run.records:
            counted = {o.shard_id for o in record.outcomes if o.counted}
            assert 0 not in counted
            assert counted == {1, 2, 3}
            assert record.latency_ms <= 100.0 + 1.0

    def test_budget_policy_survives_without_timeout(self, cluster, unit_testbed):
        # Cottage-style budgets bound the damage with no safety timeout:
        # use the aggregation policy (all-shard budget) as the budget proxy.
        from repro.policies import AggregationPolicy

        faults = FaultSchedule.single(1, 0.0, 1e9)
        run = cluster.run_trace(
            trace(), AggregationPolicy(initial_budget_ms=30.0), faults=faults
        )
        assert len(run.records) == 20
        assert all(r.latency_ms < 120.0 for r in run.records)

    def test_outage_window_only(self, cluster):
        # Shard 0 down for the first half of the trace only.
        faults = FaultSchedule.single(0, 0.0, 500.0)
        run = cluster.run_trace(
            trace(), ExhaustivePolicy(), faults=faults, response_timeout_ms=200.0
        )
        early = [r for r in run.records if r.arrival_ms < 400.0]
        late = [r for r in run.records if r.arrival_ms > 600.0]
        assert early and late
        assert all(
            0 not in {o.shard_id for o in r.outcomes if o.counted} for r in early
        )
        assert all(0 in {o.shard_id for o in r.outcomes if o.counted} for r in late)

    def test_dead_isn_consumes_no_energy(self, cluster):
        faults = FaultSchedule.single(0, 0.0, 1e9)
        run = cluster.run_trace(
            trace(), ExhaustivePolicy(), faults=faults, response_timeout_ms=100.0
        )
        assert run.power.per_core_utilization[0] == 0.0
        assert run.power.per_core_utilization[1] > 0.0

    def test_quality_degrades_gracefully(self, cluster, shards):
        from repro.metrics import GroundTruth

        faults = FaultSchedule.single(0, 0.0, 1e9)
        run = cluster.run_trace(
            trace(), ExhaustivePolicy(), faults=faults, response_timeout_ms=100.0
        )
        truth = GroundTruth.build(cluster.searcher, [trace()[0]], k=5)
        precisions = [
            truth.precision(r.query, r.result.doc_ids()) for r in run.records
        ]
        # Partial answers: below perfect, far above empty.
        assert 0.0 < np.mean(precisions) < 1.0

    def test_timeout_validation(self, cluster):
        with pytest.raises(ValueError):
            cluster.run_trace(trace(), ExhaustivePolicy(), response_timeout_ms=0.0)


class TestTimeoutFaultsCacheCombined:
    """Response timeout + fail-silent faults + result cache, together.

    The sequencing under test: a query misses the cache and is dispatched;
    a duplicate arrives while the first is still in flight (the result is
    not cached until finalize, so it also misses and dispatches); the
    safety timeout then finalizes both against the dead shard, the merged
    result is cached, and a third occurrence answers from the cache.
    """

    def test_timeout_fires_while_cached_query_in_flight(self, cluster):
        from repro.cluster import ResultCache

        timeout_ms = 50.0
        faults = FaultSchedule.single(0, 0.0, 1e9)  # shard 0 never answers
        cache = ResultCache(capacity=8)
        repeats = QueryTrace(
            name="repeats",
            queries=[
                # Same terms three times: t=0 (miss, dispatch), t=20ms
                # (in flight -> miss, dispatch), t=200ms (cache hit).
                Query(query_id=0, terms=("t1", "t12"), arrival_time=0.0),
                Query(query_id=1, terms=("t1", "t12"), arrival_time=0.020),
                Query(query_id=2, terms=("t1", "t12"), arrival_time=0.200),
            ],
        )
        run = cluster.run_trace(
            repeats,
            ExhaustivePolicy(),
            faults=faults,
            response_timeout_ms=timeout_ms,
            cache=cache,
        )
        first, second, third = run.records
        # Both in-flight queries missed the cache and paid the timeout.
        assert not first.from_cache and not second.from_cache
        assert first.latency_ms >= timeout_ms
        assert second.latency_ms >= timeout_ms
        # The third arrived after the first finalized and hit the cache.
        assert third.from_cache
        assert third.latency_ms == cache.lookup_ms
        assert third.outcomes == []  # zero ISN work on a hit
        assert run.cache_stats.hits == 1
        assert run.cache_stats.misses == 2
        # Every dispatched answer excludes the dead shard but is non-empty.
        for record in (first, second):
            counted = {o.shard_id for o in record.outcomes if o.counted}
            assert 0 not in counted
            assert counted == {1, 2, 3}
        assert third.result.hits == first.result.hits
