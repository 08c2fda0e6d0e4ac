"""Hedged request races: exactly-once commit under any finish order.

A second replica takes a budget-aware hedge when the primary looks
likely to miss its budget, and the first response recalls the other
attempt.  That creates the classic distributed races — duplicate
responses, recalls reaching an attempt already in service, stragglers
landing after finalize — and the aggregator must resolve every one of
them to exactly one merged response per shard and exactly one committed
record per query.  The Hypothesis stress randomizes per-replica speeds
(hence finish orders) via seeded slowdown schedules and checks the
invariants wholesale; each race window also has one deterministic
single-query construction.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Aggregator,
    CostModel,
    Decision,
    EnergyMeter,
    FaultSchedule,
    FrequencyScale,
    ISNServer,
    NetworkModel,
    PowerModel,
    SearchCluster,
    Simulator,
    Slowdown,
)
from repro.policies import ExhaustivePolicy
from repro.retrieval import Query, QueryTrace, ShardSearcher


def small_trace(n=20, gap_s=0.005):
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


def assert_exactly_once(run, trace, n_shards):
    """The race invariants, checked wholesale over a finished run."""
    # Exactly one commit per query, in arrival order.
    assert len(run.records) == len(trace)
    assert [r.query.query_id for r in run.records] == [
        q.query_id for q in trace
    ]
    for record in run.records:
        # At most one merged (counted) response per shard...
        counted_by_shard = {}
        for outcome in record.outcomes:
            if outcome.counted:
                counted_by_shard.setdefault(outcome.shard_id, 0)
                counted_by_shard[outcome.shard_id] += 1
        assert all(n == 1 for n in counted_by_shard.values())
        # ...and a recalled-in-queue attempt is never the one merged.
        assert not any(o.counted and o.cancelled for o in record.outcomes)
    # Global accounting closes: every cancel was either delivered in
    # queue or arrived too late (the attempt had finished or aborted).
    assert run.cancelled_in_queue <= run.cancels_sent
    # Only a fired hedge makes a race: one recall, one dropped copy and
    # one win at most per hedge.
    assert run.cancels_sent <= run.hedges_issued
    assert run.duplicates_dropped <= run.hedges_issued
    assert run.hedge_wins <= run.hedges_issued


class FixedBudgetPolicy:
    """Every shard, one fixed budget: tight budgets hedge at the floor."""

    name = "fixed_budget"

    def __init__(self, n_shards, budget_ms):
        self.decision = Decision(
            shard_ids=tuple(range(n_shards)), time_budget_ms=budget_ms
        )

    def decide(self, query, view):
        return self.decision

    def observe(self, record):
        pass


class TestHedgedStress:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        gap_ms=st.sampled_from([1.0, 4.0, 15.0]),
        budget_ms=st.sampled_from([None, 3.0, 12.0, 40.0]),
    )
    def test_exactly_once_under_randomized_finish_orders(
        self, shards, seed, gap_ms, budget_ms
    ):
        """Per-replica slowdown factors drawn from the seed scramble which
        replica answers first, shard by shard and query by query."""
        rng = random.Random(seed)
        slowdowns = [
            Slowdown(
                shard_id=sid,
                start_ms=0.0,
                end_ms=1e9,
                factor=rng.uniform(0.5, 6.0),
                replica_id=rid,
            )
            for sid in range(len(shards))
            for rid in range(2)
        ]
        trace = small_trace(16, gap_s=gap_ms / 1000.0)
        if budget_ms is None:
            policy, timeout_ms = ExhaustivePolicy(), 80.0
        else:
            policy, timeout_ms = FixedBudgetPolicy(len(shards), budget_ms), None
        run = SearchCluster(shards, k=5).run_trace(
            trace,
            policy,
            faults=FaultSchedule(slowdowns=slowdowns),
            response_timeout_ms=timeout_ms,
            n_replicas=2,
        )
        assert_exactly_once(run, trace, len(shards))

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_hedged_exactly_once_under_straggling_primaries(self, shards, seed):
        rng = random.Random(seed)
        slowdowns = [
            Slowdown(sid, 0.0, 1e9, rng.uniform(2.0, 25.0), replica_id=0)
            for sid in range(len(shards))
        ]
        trace = small_trace(16, gap_s=0.004)
        run = SearchCluster(shards, k=5).run_trace(
            trace,
            ExhaustivePolicy(),
            faults=FaultSchedule(slowdowns=slowdowns),
            response_timeout_ms=80.0,
            n_replicas=2,
        )
        assert_exactly_once(run, trace, len(shards))
        assert run.hedges_issued > 0


def _make_group(shards, shard_id, n_replicas, faults=None):
    searcher = ShardSearcher(shards[shard_id], k=5)
    return [
        ISNServer(
            shard_id=shard_id,
            searcher=searcher,
            cost_model=CostModel(),
            freq_scale=FrequencyScale(),
            meter=EnergyMeter(PowerModel()),
            faults=faults,
            replica_id=rid,
        )
        for rid in range(n_replicas)
    ]


class StaticPolicy:
    name = "static"

    def __init__(self, decision):
        self.decision = decision
        self.observed = []

    def decide(self, query, view):
        return self.decision

    def observe(self, record):
        self.observed.append(record)


class TestCancelRaces:
    """Deterministic single-query constructions of each race window."""

    def _build(self, shards, faults, decision, response_timeout_ms=None):
        sim = Simulator()
        groups = [_make_group(shards, sid, 2, faults) for sid in range(len(shards))]
        aggregator = Aggregator(
            isns=groups,
            policy=StaticPolicy(decision),
            network=NetworkModel(),
            sim=sim,
            k=5,
            response_timeout_ms=response_timeout_ms,
        )
        sim.schedule_at(0.0, lambda: aggregator.on_query(Query(0, ("t1",))))
        return sim, aggregator, groups

    def _run_one(self, shards, faults, decision, response_timeout_ms=None):
        sim, aggregator, groups = self._build(
            shards, faults, decision, response_timeout_ms
        )
        sim.run()
        return aggregator, groups

    def test_loser_recalled_in_queue_does_zero_work(self, shards):
        # Replica 1 of shard 0 is wedged and busy with another query, so
        # the hedge sits in its queue when the primary's recall lands.
        # The blocker's backlog pushes the backup's ETA past the 8 ms
        # budget, which forces the hedge to the floor instant.
        faults = FaultSchedule(slowdowns=[Slowdown(0, 0.0, 1e9, 50.0, replica_id=1)])
        sim, aggregator, groups = self._build(
            shards, faults, Decision(shard_ids=(0,), time_budget_ms=8.0)
        )
        blocker = groups[0][1].make_job(
            Query(99, ("t2",)), 2.1, None, lambda *a: None
        )
        groups[0][1].submit(blocker, sim)
        sim.run()
        assert len(aggregator.records) == 1
        record = aggregator.records[0]
        assert record.n_counted == 1  # replica 0 answered, once
        assert aggregator.hedges_issued == 1
        # The recall reached replica 1's queue: zero work was spent there
        # (the winner finalizes the query immediately, so the recall
        # resolves after commit — the run-level counters carry it).
        assert aggregator.cancels_sent == 1
        assert aggregator.cancelled_in_queue == 1
        assert groups[0][1].jobs_cancelled == 1
        assert groups[0][1].jobs_processed == 1  # the blocker only

    def test_cancel_crossing_finish_drops_late_response_once(self, shards):
        # Both replicas idle, and the predictor calls every primary
        # hopeless (predicted service = the whole budget): each hedge
        # fires at the floor and starts at once, the recall reaches a
        # replica already in service (no-op), and its later response must
        # be dropped — not merged twice.  Shard 0 runs 4x slow on both
        # replicas, so every other shard's late copy lands before the
        # query finalizes (a duplicate) and shard 0's after (a straggler).
        n = len(shards)
        faults = FaultSchedule(slowdowns=[Slowdown(0, 0.0, 1e9, 4.0)])
        aggregator, groups = self._run_one(
            shards,
            faults,
            Decision(
                shard_ids=tuple(range(n)),
                time_budget_ms=100.0,
                predicted_service_ms={sid: 100.0 for sid in range(n)},
            ),
        )
        assert len(aggregator.records) == 1
        record = aggregator.records[0]
        assert record.n_counted == n
        assert aggregator.hedges_issued == n
        assert aggregator.hedge_wins == 0
        assert aggregator.cancels_sent == n
        assert aggregator.cancelled_in_queue == 0
        assert aggregator.duplicates_dropped == n - 1
        counted = [o for o in record.outcomes if o.counted]
        assert len(counted) == n
        assert {o.shard_id for o in counted} == set(range(n))
        assert all(o.role == "primary" for o in counted)

    def test_cancel_after_finalize_is_harmless(self, shards):
        # Tight budget: the hedges fire at the floor, and the deadline
        # finalizes the query while both attempts of each shard are still
        # in service; their aborts, responses and any cancel deliveries
        # all land after finalize and must no-op.
        faults = FaultSchedule(
            slowdowns=[
                Slowdown(sid, 0.0, 1e9, 8.0) for sid in range(len(shards))
            ]
        )
        aggregator, groups = self._run_one(
            shards, faults, Decision(shard_ids=(0, 1), time_budget_ms=1.0)
        )
        assert len(aggregator.records) == 1  # exactly one commit, no crash
        assert aggregator.hedges_issued == 2
        record = aggregator.records[0]
        assert record.n_counted == 0  # nothing made the deadline
        assert record.latency_ms >= 1.0
        assert not any(o.counted for o in record.outcomes)

    def test_hedge_never_fires_after_finalize(self, shards):
        # Response timeout shorter than the unbudgeted hedge delay: the
        # query finalizes (empty) before the hedge instant; the backup
        # must stay unspent.
        faults = FaultSchedule(
            slowdowns=[Slowdown(0, 0.0, 1e9, 40.0, replica_id=0)]
        )
        aggregator, groups = self._run_one(
            shards, faults, Decision(shard_ids=(0,)), response_timeout_ms=1.0
        )
        assert len(aggregator.records) == 1
        assert aggregator.hedges_issued == 0
        assert groups[0][1].jobs_processed == 0  # backup replica untouched

    def test_hedge_win_routes_around_wedged_primary(self, shards):
        # Primary wedged 40x slow with a budget it cannot make but the
        # backup comfortably can: the hedge planner fires the backup at
        # the last useful instant and the backup's response wins.
        searcher = ShardSearcher(shards[0], k=5)
        service = CostModel().service_ms(
            searcher.search(Query(0, ("t1",))).cost, FrequencyScale().default_ghz
        )
        faults = FaultSchedule(
            slowdowns=[Slowdown(0, 0.0, 1e9, 40.0, replica_id=0)]
        )
        aggregator, groups = self._run_one(
            shards,
            faults,
            Decision(shard_ids=(0,), time_budget_ms=10.0 * service),
        )
        assert len(aggregator.records) == 1
        record = aggregator.records[0]
        assert aggregator.hedges_issued == 1
        assert aggregator.hedge_wins == 1
        winner = [o for o in record.outcomes if o.counted]
        assert len(winner) == 1
        assert winner[0].replica_id == 1
        assert winner[0].role == "hedge"
        assert record.n_counted == 1
