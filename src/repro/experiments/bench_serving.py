"""Serving-plane benchmark: saturation campaign, bit-identity, memory.

Measures the three claims the open-loop serving plane makes, producing
the ``BENCH_serving.json`` record CI gates on:

* **Knee-vs-model agreement** — a QPS sweep's measured goodput knee lands
  within a relative tolerance of the closed M/G/1 fork-join model's
  predicted saturation (:mod:`repro.serving.queueing`), and the sweep
  actually saturates (the grid straddles the knee).
* **Closed-loop bit-identity** — replaying a :class:`QueryTrace` through
  :class:`~repro.serving.orchestrator.ServingPlane` fingerprints
  identically to ``SearchCluster.run_trace``; the refactor moved code,
  not behavior.
* **Bounded memory at scale** — a seeded million-query open-loop drive
  (streaming sinks, no per-query retention, admission-bounded in-flight
  population) stays under a flat memory cap; peak tracemalloc bytes are
  recorded, independent of the query count.

``benchmarks/run_bench_serving.py`` drives this with pinned seeds and a
machine fingerprint embedded in the record.  Wall-clock timing lives
here (not in the simulator) — ``experiments/bench_*.py`` is the
determinism linter's allowlisted home for it.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from json import dumps
from pathlib import Path

from repro.cluster.engine import RunResult
from repro.experiments.bench_storage import MachineFingerprint
from repro.experiments.testbed import Scale, Testbed
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    CampaignConfig,
    QueryStream,
    ServingPlane,
    make_arrivals,
    pool_from_corpus,
    run_campaign,
)

SCALE = "unit"
POLICY = "cottage"
ARRIVAL = "poisson"
QUERIES_PER_POINT = 2000
DRIVE_QUERIES = 1_000_000
KNEE_TOLERANCE = 0.25
DRIVE_MEMORY_CAP_MIB = 256.0
SEED = 0


def run_fingerprint(run: RunResult) -> str:
    """Order-sensitive digest of a closed-loop run (records + power)."""
    lines = [run.policy_name, repr(run.power)]
    for record in run.records:
        lines.append(
            f"{record.query.query_id}|{record.latency_ms!r}|"
            f"{record.result.fingerprint()}"
        )
    return "\n".join(lines)


@dataclass
class ServingBenchResult:
    scale: str
    policy: str
    arrival: str
    seed: int
    queries_per_point: int
    drive_queries: int
    knee_tolerance: float
    machine: MachineFingerprint
    build_ms: float = 0.0
    # Saturation campaign vs the queueing model.
    predicted_knee_qps: float = 0.0
    measured_knee_qps: float = 0.0
    knee_ratio: float = 0.0
    knee_saturated: bool = False
    knee_within_tolerance: bool = False
    campaign_queries: int = 0
    campaign_wall_ms: float = 0.0
    points: list[dict] = field(default_factory=list)
    model: dict = field(default_factory=dict)
    # Closed-loop trace through the serving plane vs run_trace.
    closed_loop_bit_identical: bool = False
    # Million-query open-loop drive under a memory cap.
    drive_rate_fraction: float = 0.85
    drive_offered_qps: float = 0.0
    drive_completed: int = 0
    drive_shed: int = 0
    drive_admitted: int = 0
    drive_mean_latency_ms: float = 0.0
    drive_p99_ms: float = 0.0
    drive_peak_mib: float = 0.0
    drive_memory_cap_mib: float = DRIVE_MEMORY_CAP_MIB
    drive_wall_ms: float = 0.0
    drive_wall_qps: float = 0.0
    bounded_memory: bool = False

    @property
    def passed(self) -> bool:
        return (
            self.knee_within_tolerance
            and self.closed_loop_bit_identical
            and self.bounded_memory
        )


def run(
    scale: str = SCALE,
    policy: str = POLICY,
    arrival: str = ARRIVAL,
    queries_per_point: int = QUERIES_PER_POINT,
    drive_queries: int = DRIVE_QUERIES,
    knee_tolerance: float = KNEE_TOLERANCE,
    drive_memory_cap_mib: float = DRIVE_MEMORY_CAP_MIB,
    seed: int = SEED,
) -> ServingBenchResult:
    """Build the testbed and measure; see the module docstring."""
    result = ServingBenchResult(
        scale=scale,
        policy=policy,
        arrival=arrival,
        seed=seed,
        queries_per_point=queries_per_point,
        drive_queries=drive_queries,
        knee_tolerance=knee_tolerance,
        drive_memory_cap_mib=drive_memory_cap_mib,
        machine=MachineFingerprint.capture(),
    )
    t0 = time.perf_counter()
    testbed = Testbed.build(getattr(Scale, scale)())
    result.build_ms = (time.perf_counter() - t0) * 1e3
    cluster = testbed.cluster
    pool = pool_from_corpus(testbed.corpus, n_distinct=testbed.scale.trace_distinct)

    # 1. Saturation campaign: sweep offered QPS, locate the knee, compare
    #    it to the model's predicted saturation.
    t0 = time.perf_counter()
    campaign = run_campaign(
        cluster,
        lambda: testbed.make_policy(policy),
        pool,
        CampaignConfig(
            queries_per_point=queries_per_point, arrival=arrival, seed=seed
        ),
    )
    result.campaign_wall_ms = (time.perf_counter() - t0) * 1e3
    result.predicted_knee_qps = campaign.predicted_knee_qps
    result.measured_knee_qps = campaign.knee.knee_qps
    result.knee_ratio = campaign.knee_ratio
    result.knee_saturated = campaign.knee.saturated
    result.knee_within_tolerance = campaign.knee_within(knee_tolerance)
    result.campaign_queries = campaign.total_queries
    result.points = [point.snapshot() for point in campaign.points]
    result.model = campaign.model.snapshot()

    # 2. Closed-loop bit-identity: the same trace through run_trace and
    #    through the serving plane directly must fingerprint identically.
    trace = testbed.wikipedia_trace
    baseline = cluster.run_trace(trace, testbed.make_policy(policy))
    replayed = ServingPlane(cluster).run(trace, testbed.make_policy(policy))
    result.closed_loop_bit_identical = run_fingerprint(baseline) == run_fingerprint(
        replayed
    )

    # 3. Bounded memory: drive a seeded open-loop stream (default one
    #    million queries) just below the knee with streaming sinks only.
    #    tracemalloc starts after the index/testbed are built, so the peak
    #    is the serving plane's own working set.
    offered = result.drive_rate_fraction * campaign.predicted_knee_qps
    result.drive_offered_qps = offered
    stream = QueryStream(
        pool,
        make_arrivals(arrival, offered, seed=seed + 7),
        seed=seed + 13,
        max_queries=drive_queries,
    )
    admission = AdmissionController(AdmissionConfig(max_in_flight=512))
    drive_policy = testbed.make_policy(policy)
    tracemalloc.start()
    t0 = time.perf_counter()
    drive = cluster.serve(
        stream, drive_policy, admission=admission, retain_records=False
    )
    result.drive_wall_ms = (time.perf_counter() - t0) * 1e3
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = drive.serving
    assert stats is not None
    result.drive_completed = stats.completed
    result.drive_shed = stats.shed
    result.drive_admitted = drive.admitted_queries
    result.drive_mean_latency_ms = stats.mean_latency_ms
    result.drive_p99_ms = stats.percentile_ms(99)
    result.drive_peak_mib = peak / (1024 * 1024)
    result.drive_wall_qps = (
        drive.offered_queries / (result.drive_wall_ms / 1e3)
        if result.drive_wall_ms > 0
        else 0.0
    )
    result.bounded_memory = result.drive_peak_mib < drive_memory_cap_mib
    return result


def format_report(result: ServingBenchResult) -> str:
    lines = [
        "Serving plane — open-loop saturation campaign",
        (
            f"  testbed: scale={result.scale} policy={result.policy} "
            f"arrival={result.arrival} seed={result.seed} "
            f"host: {result.machine.cpu_count} cpu(s)"
        ),
        (
            f"  knee: measured {result.measured_knee_qps:.1f} qps vs "
            f"predicted {result.predicted_knee_qps:.1f} qps "
            f"(ratio {result.knee_ratio:.3f}, "
            f"{'saturated' if result.knee_saturated else 'NOT saturated'}, "
            f"tolerance {result.knee_tolerance:.0%}: "
            f"{'ok' if result.knee_within_tolerance else 'FAIL'})"
        ),
        (
            f"  campaign: {result.campaign_queries} queries over "
            f"{len(result.points)} points in {result.campaign_wall_ms:.0f} ms"
        ),
        f"  closed-loop bit-identical: {result.closed_loop_bit_identical}",
        (
            f"  drive: {result.drive_completed} completed / "
            f"{result.drive_shed} shed of {result.drive_queries} offered at "
            f"{result.drive_offered_qps:.1f} qps "
            f"(mean {result.drive_mean_latency_ms:.2f} ms, "
            f"p99 {result.drive_p99_ms:.2f} ms)"
        ),
        (
            f"  drive memory: peak {result.drive_peak_mib:.1f} MiB "
            f"(cap {result.drive_memory_cap_mib:.0f} MiB: "
            f"{'ok' if result.bounded_memory else 'FAIL'}), "
            f"wall {result.drive_wall_ms / 1e3:.1f} s "
            f"({result.drive_wall_qps:,.0f} q/s)"
        ),
    ]
    return "\n".join(lines)


def write_json(result: ServingBenchResult, path: str | Path) -> None:
    """Write the result as the ``BENCH_serving.json`` perf record."""
    Path(path).write_text(dumps(asdict(result), indent=2) + "\n")
