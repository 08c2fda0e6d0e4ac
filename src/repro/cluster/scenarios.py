"""Declarative fault scenarios and the faults × replication × budget matrix.

The fault-tolerance story has three independent axes — what breaks
(:mod:`repro.cluster.faults`), how the cluster is replicated
(:mod:`repro.cluster.replicas`) and which budget policy runs — and the
interesting behaviour lives in their interactions: a budgeted policy
converts a dead shard into bounded quality loss, a hedged replica
converts a straggler into a small latency bump, a correlated outage
defeats replication and falls back to the timeout safety net.

This module makes those cells first-class: :data:`SCENARIOS` names a
handful of canonical fault timelines (pure functions of a seed, drawn
from explicitly seeded streams), :class:`MatrixCase` names one cell, and
:func:`run_matrix` replays a trace through every cell and reduces each
run to a :class:`CellResult` — tail latency, wasted work and quality
loss against the same policy's fault-free reference run.

``repro faults`` (CLI) and ``tests/test_scenario_matrix.py`` drive this
one implementation.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

import numpy as np

from repro.cluster.engine import RunResult, SearchCluster
from repro.cluster.faults import FaultSchedule
from repro.metrics.quality import GroundTruth
from repro.retrieval.query import QueryTrace


@dataclass(frozen=True)
class ScenarioContext:
    """What a scenario builder may depend on — nothing else, so a
    scenario's timeline is identical across policies (cells of one
    scenario row stay comparable)."""

    n_shards: int
    n_replicas: int
    horizon_ms: float
    seed: int

    def rng(self, salt: int) -> random.Random:
        """A fresh seeded stream per (seed, scenario), never the global RNG,
        and decoupled so adding a scenario never shifts another's draws."""
        return random.Random((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)


def _none(ctx: ScenarioContext) -> FaultSchedule | None:
    return None


def _outage(ctx: ScenarioContext) -> FaultSchedule:
    """Shard 0 (every replica) fail-silent over the middle third."""
    return FaultSchedule.single(
        0, ctx.horizon_ms / 3.0, 2.0 * ctx.horizon_ms / 3.0
    )


def _flaky_shard(ctx: ScenarioContext) -> FaultSchedule:
    """Shard 0 flaps: exponentially jittered up/down intervals."""
    return FaultSchedule.random_flaky(
        0,
        ctx.horizon_ms,
        ctx.rng(salt=101),
        mean_up_ms=ctx.horizon_ms / 12.0,
        mean_down_ms=ctx.horizon_ms / 30.0,
    )


def _slow_replica(ctx: ScenarioContext) -> FaultSchedule:
    """Replica 0 of shard 0 serves 20x slow for the whole run (a wedged
    node: every query routed there becomes a straggler).  The canonical
    hedging case — a backup replica is healthy throughout."""
    return FaultSchedule.straggler(
        0, 0.0, ctx.horizon_ms, factor=20.0, replica_id=0
    )


def _correlated(ctx: ScenarioContext) -> FaultSchedule:
    """A rack dies: the first quarter of the shards (at least two), every
    replica, over the middle third.  Replication cannot help; budgets and
    timeouts must."""
    n_down = max(ctx.n_shards // 4, 2)
    return FaultSchedule.correlated_outage(
        list(range(min(n_down, ctx.n_shards))),
        ctx.horizon_ms / 3.0,
        2.0 * ctx.horizon_ms / 3.0,
    )


def _burst_outage(ctx: ScenarioContext) -> FaultSchedule:
    """Compound stress: shard 0 dies during the opening burst (queues are
    deepest early in a trace) while random stragglers roam the cluster."""
    burst = FaultSchedule.single(0, 1.0, ctx.horizon_ms / 4.0)
    stragglers = FaultSchedule.random_stragglers(
        ctx.n_shards,
        ctx.horizon_ms,
        ctx.rng(salt=202),
        n_events=max(ctx.n_shards // 2, 2),
        mean_len_ms=ctx.horizon_ms / 10.0,
        n_replicas=ctx.n_replicas,
    )
    return FaultSchedule(
        outages=list(burst.outages), slowdowns=list(stragglers.slowdowns)
    )


SCENARIOS = {
    "none": _none,
    "outage": _outage,
    "flaky_shard": _flaky_shard,
    "slow_replica": _slow_replica,
    "correlated": _correlated,
    "burst_outage": _burst_outage,
}


def scenario_schedule(
    name: str, ctx: ScenarioContext
) -> FaultSchedule | None:
    """Build the named scenario's fault timeline for one run."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; use one of {sorted(SCENARIOS)}"
        ) from None
    return builder(ctx)


@dataclass(frozen=True)
class MatrixCase:
    """One cell: a fault scenario × a policy × a replica count (R >= 2
    hedges every request to replica 1)."""

    scenario: str
    policy: str
    n_replicas: int = 1

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.n_replicas < 1:
            raise ValueError("need at least one replica")

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.policy}/r{self.n_replicas}"


@dataclass(frozen=True)
class CellResult:
    """One cell's reduced outcome (a row of ``repro faults --out``)."""

    scenario: str
    policy: str
    n_replicas: int
    n_queries: int
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    avg_precision: float
    quality_loss: float  # reference (fault-free) precision minus this cell's
    avg_dropped_shards: float
    hedges_issued: int
    hedge_wins: int
    cancels_sent: int
    cancelled_in_queue: int
    duplicates_dropped: int
    total_service_ms: float
    wasted_service_ms: float
    wasted_work_ratio: float
    avg_power_w: float

    def row(self) -> dict:
        return asdict(self)


def reduce_run(
    case: MatrixCase,
    run: RunResult,
    truth: GroundTruth,
    reference_precision: float,
) -> CellResult:
    """Fold one cell's run into its scoreboard row."""
    if not run.records:
        raise ValueError("run produced no records")
    latencies = np.asarray(run.latencies_ms(), dtype=np.float64)
    precisions = [
        truth.precision(record.query, record.result.doc_ids())
        for record in run.records
    ]
    avg_precision = float(np.mean(precisions))
    return CellResult(
        scenario=case.scenario,
        policy=case.policy,
        n_replicas=case.n_replicas,
        n_queries=len(run.records),
        mean_latency_ms=float(latencies.mean()),
        p50_latency_ms=float(np.percentile(latencies, 50)),
        p95_latency_ms=float(np.percentile(latencies, 95)),
        p99_latency_ms=float(np.percentile(latencies, 99)),
        avg_precision=avg_precision,
        quality_loss=reference_precision - avg_precision,
        avg_dropped_shards=float(
            np.mean([r.n_dropped_shards for r in run.records])
        ),
        hedges_issued=run.hedges_issued,
        hedge_wins=run.hedge_wins,
        cancels_sent=run.cancels_sent,
        cancelled_in_queue=run.cancelled_in_queue,
        duplicates_dropped=run.duplicates_dropped,
        total_service_ms=run.total_service_ms,
        wasted_service_ms=run.wasted_service_ms,
        wasted_work_ratio=run.wasted_work_ratio,
        avg_power_w=run.power.average_power_w,
    )


def default_matrix(
    policies: tuple[str, ...] = ("exhaustive", "cottage"),
    scenarios: tuple[str, ...] = (
        "outage", "flaky_shard", "slow_replica", "correlated",
    ),
) -> list[MatrixCase]:
    """The canonical grid: every scenario × policy, once with a single
    replica and once hedged over two."""
    return [
        MatrixCase(scenario, policy, n_replicas)
        for scenario in scenarios
        for policy in policies
        for n_replicas in (1, 2)
    ]


def run_matrix(
    cluster: SearchCluster,
    make_policy,
    trace: QueryTrace,
    truth: GroundTruth,
    cases: list[MatrixCase],
    seed: int = 0,
    response_timeout_ms: float | None = 150.0,
) -> list[CellResult]:
    """Replay ``trace`` through every matrix cell.

    ``make_policy`` maps a policy name to a fresh :class:`SelectionPolicy`
    (``Testbed.make_policy`` fits).  ``response_timeout_ms`` is passed to
    every run; it only bites queries dispatched without a deadline, i.e.
    it is the unbudgeted policies' safety net and a no-op for Cottage.

    Each policy's fault-free single-replica run is the quality-loss
    reference; references are computed once per policy and reused across
    cells.  Every run is a pure function of (trace, seed, case), so the
    whole matrix is reproducible row by row.
    """
    horizon_ms = max(trace.duration * 1000.0, 1.0)
    references: dict[str, float] = {}
    results: list[CellResult] = []

    def reference_precision(policy_name: str) -> float:
        cached = references.get(policy_name)
        if cached is None:
            run = cluster.run_trace(
                trace,
                make_policy(policy_name),
                response_timeout_ms=response_timeout_ms,
            )
            cached = float(
                np.mean([
                    truth.precision(r.query, r.result.doc_ids())
                    for r in run.records
                ])
            )
            references[policy_name] = cached
        return cached

    for case in cases:
        ctx = ScenarioContext(
            n_shards=cluster.n_shards,
            n_replicas=case.n_replicas,
            horizon_ms=horizon_ms,
            seed=seed,
        )
        run = cluster.run_trace(
            trace,
            make_policy(case.policy),
            faults=scenario_schedule(case.scenario, ctx),
            response_timeout_ms=response_timeout_ms,
            n_replicas=case.n_replicas,
        )
        results.append(
            reduce_run(case, run, truth, reference_precision(case.policy))
        )
    return results
