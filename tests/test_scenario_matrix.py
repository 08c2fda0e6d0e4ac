"""The faults x replication x budget scenario matrix.

Four regression families:

* scenario timelines are pure functions of the seed (equal
  seeds replay equal fault schedules, different seeds diverge);
* the ``response_timeout_ms`` safety net is what keeps unbudgeted
  policies answering under a total outage — without it the affected
  queries never finalize;
* quality-loss accounting closes against dropped-shard counts: a
  fault-free cell loses nothing, an outage cell loses exactly what the
  dead shards contributed;
* the tail-tolerance headline on the trained unit testbed: under a
  wedged replica, hedged dispatch beats single-replica p99 while
  spending less than twice its ISN time — simulated clock only.
"""

import pytest

from repro.cluster import FaultSchedule, SearchCluster
from repro.experiments.scenarios import (
    SCENARIOS,
    CellResult,
    MatrixCase,
    ScenarioContext,
    default_matrix,
    run_matrix,
    scenario_schedule,
)
from repro.metrics import GroundTruth
from repro.policies import AggregationPolicy, ExhaustivePolicy
from repro.retrieval import Query, QueryTrace


def small_trace(n=18, gap_s=0.01):
    terms_pool = [("t1",), ("t2", "t12"), ("t5",), ("t11", "t3"), ("t21",)]
    return QueryTrace(
        name="matrix",
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
    """run_matrix policy factory: one unbudgeted, one budgeted policy."""
    if name == "exhaustive":
        return ExhaustivePolicy()
    if name == "budgeted":
        return AggregationPolicy(initial_budget_ms=30.0)
    raise ValueError(name)


def ctx(seed=0, n_shards=4, n_replicas=2, horizon_ms=180.0):
    return ScenarioContext(
        n_shards=n_shards,
        n_replicas=n_replicas,
        horizon_ms=horizon_ms,
        seed=seed,
    )


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_timeline(self, name):
        assert scenario_schedule(name, ctx(seed=7)) == scenario_schedule(
            name, ctx(seed=7)
        )

    @pytest.mark.parametrize("name", ["flaky_shard", "burst_outage"])
    def test_different_seeds_diverge(self, name):
        # The randomized scenarios actually consume their seed.
        timelines = {
            repr(scenario_schedule(name, ctx(seed=s))) for s in range(4)
        }
        assert len(timelines) > 1

    @pytest.mark.parametrize("name", ["none", "outage", "slow_replica", "correlated"])
    def test_deterministic_scenarios_ignore_the_seed(self, name):
        assert scenario_schedule(name, ctx(seed=1)) == scenario_schedule(
            name, ctx(seed=2)
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_schedule("meteor_strike", ctx())

    def test_slow_replica_spares_the_backup(self):
        schedule = scenario_schedule("slow_replica", ctx())
        assert schedule.slowdown_factor(0, 10.0, replica_id=0) > 1.0
        assert schedule.slowdown_factor(0, 10.0, replica_id=1) == 1.0

    def test_correlated_kills_at_least_two_shards(self):
        schedule = scenario_schedule("correlated", ctx())
        mid = ctx().horizon_ms / 2.0
        down = [sid for sid in range(4) if schedule.is_down(sid, mid)]
        assert len(down) >= 2
        # ...on every replica: replication cannot route around a rack.
        assert all(schedule.is_down(sid, mid, replica_id=1) for sid in down)


class TestMatrixCases:
    def test_default_matrix_shape(self):
        cases = default_matrix(
            policies=("exhaustive", "budgeted"), scenarios=("outage",)
        )
        # Per scenario x policy: a single-replica baseline plus a cell
        # hedged over two replicas.
        assert [(c.policy, c.n_replicas) for c in cases] == [
            ("exhaustive", 1), ("exhaustive", 2), ("budgeted", 1), ("budgeted", 2),
        ]

    def test_case_validation(self):
        with pytest.raises(ValueError):
            MatrixCase("outage", "exhaustive", n_replicas=0)
        with pytest.raises(ValueError):
            MatrixCase("no_such", "exhaustive")

    def test_label_is_fully_qualified(self):
        case = MatrixCase("outage", "budgeted", 2)
        assert case.label == "outage/budgeted/r2"


@pytest.fixture()
def matrix_env(shards):
    cluster = SearchCluster(shards, k=5)
    trace = small_trace()
    truth = GroundTruth.build(cluster.searcher, list(trace), k=5)
    return cluster, trace, truth


class TestRunMatrix:
    def test_same_seed_identical_cells(self, matrix_env):
        cluster, trace, truth = matrix_env
        cases = [
            MatrixCase("outage", "exhaustive"),
            MatrixCase("flaky_shard", "budgeted", 2),
            MatrixCase("burst_outage", "budgeted", 2),
        ]
        first = run_matrix(cluster, make_policy, trace, truth, cases, seed=3)
        second = run_matrix(cluster, make_policy, trace, truth, cases, seed=3)
        assert first == second  # CellResult is frozen: field-exact equality
        assert all(isinstance(cell, CellResult) for cell in first)

    def test_timeout_safety_net_required_for_unbudgeted_policies(self, shards):
        """Under the outage scenario an unbudgeted policy hangs on every
        query that touches the dead shard; the safety timeout is what
        turns those into (late, partial) answers."""
        trace = small_trace()
        horizon = trace.duration * 1000.0
        faults = scenario_schedule(
            "outage", ctx(horizon_ms=horizon, n_replicas=1)
        )
        stuck = SearchCluster(shards, k=5).run_trace(
            trace, ExhaustivePolicy(), faults=faults
        )
        assert len(stuck.records) < len(trace)  # mid-trace queries hang

        saved = SearchCluster(shards, k=5).run_trace(
            trace, ExhaustivePolicy(), faults=faults, response_timeout_ms=80.0
        )
        assert len(saved.records) == len(trace)
        rescued = [r for r in saved.records if r.n_dropped_shards > 0]
        assert rescued  # the outage window actually bit
        for record in rescued:
            assert record.latency_ms >= 80.0

    def test_budgeted_policy_needs_no_safety_net(self, shards):
        trace = small_trace()
        horizon = trace.duration * 1000.0
        faults = scenario_schedule(
            "outage", ctx(horizon_ms=horizon, n_replicas=1)
        )
        run = SearchCluster(shards, k=5).run_trace(
            trace, AggregationPolicy(initial_budget_ms=30.0), faults=faults
        )
        assert len(run.records) == len(trace)  # budgets bound the damage

    def test_quality_loss_matches_dropped_shard_accounting(self, matrix_env):
        cluster, trace, truth = matrix_env
        cases = [
            MatrixCase("none", "exhaustive"),
            MatrixCase("outage", "exhaustive"),
        ]
        clean, outage = run_matrix(
            cluster, make_policy, trace, truth, cases, seed=0
        )
        # Fault-free cell: nothing dropped, nothing lost (it IS the
        # reference run, replayed).
        assert clean.avg_dropped_shards == 0.0
        assert clean.quality_loss == pytest.approx(0.0, abs=1e-12)
        # Outage cell: shards were dropped and quality moved with them.
        assert outage.avg_dropped_shards > 0.0
        assert outage.quality_loss > 0.0
        assert outage.avg_precision + outage.quality_loss == pytest.approx(
            clean.avg_precision
        )


class TestHedgingHeadline:
    @pytest.fixture(scope="class")
    def cells(self, unit_testbed):
        trace = unit_testbed.wikipedia_trace
        results = run_matrix(
            unit_testbed.cluster,
            unit_testbed.make_policy,
            trace,
            unit_testbed.truth_for(trace),
            default_matrix(
                policies=("exhaustive", "cottage"),
                scenarios=("slow_replica", "outage"),
            ),
            seed=unit_testbed.scale.seed,
            response_timeout_ms=150.0,
        )
        return {(c.scenario, c.policy, c.n_replicas): c for c in results}

    @pytest.mark.parametrize("policy", ["exhaustive", "cottage"])
    def test_hedging_routes_around_a_wedged_replica(self, cells, policy):
        primary = cells[("slow_replica", policy, 1)]
        hedged = cells[("slow_replica", policy, 2)]
        # The tail-tolerance headline: a budget-aware hedge routes around
        # the wedged replica...
        assert hedged.p99_latency_ms < primary.p99_latency_ms
        # ...without resorting to brute-force duplication: total ISN time
        # stays under twice the primary-only run's.
        assert hedged.total_service_ms < 2.0 * primary.total_service_ms
        assert hedged.hedges_issued > 0
        # Routing around the straggler also recovers the quality the
        # primary-only run lost to deadline/timeout drops.
        assert hedged.avg_dropped_shards <= primary.avg_dropped_shards
        assert hedged.quality_loss <= primary.quality_loss + 1e-9
        # A whole-shard outage is beyond what replication can fix:
        # hedging must not degrade quality below the single replica's.
        out_primary = cells[("outage", policy, 1)]
        out_hedged = cells[("outage", policy, 2)]
        assert out_hedged.quality_loss <= out_primary.quality_loss + 0.02
