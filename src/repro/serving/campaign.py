"""Saturation campaigns: sweep offered QPS, measure the knee, check the model.

A campaign drives one cluster + policy through a grid of offered arrival
rates, open-loop, collecting a throughput–latency–power point per rate
from the streaming sinks (no per-query retention, so the grid can total
millions of queries).  The measured capacity knee — where the busiest
core's utilization reaches ``KNEE_UTILIZATION`` — is then compared to the
closed queueing model's predicted saturation (:mod:`repro.serving.
queueing`); ``tests/test_campaign.py`` holds the two within 25 %.  Each
point's goodput and goodput ratio are the SLO outcome beside it: an SLO
sheds queries without moving the knee.

Each sweep point gets fresh arrival/popularity seeds derived from the
campaign seed, a fresh policy instance (adaptive policies must not leak
state across rates), and a fresh admission controller, so any single
point replays bit-identically on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.cluster.admission import AdmissionConfig, AdmissionController
from repro.cluster.cache import ResultCache
from repro.cluster.engine import SearchCluster
from repro.cluster.types import SelectionPolicy
from repro.serving.arrivals import ARRIVAL_KINDS, make_arrivals
from repro.serving.queueing import (
    ClusterQueueingModel,
    KneeEstimate,
    locate_knee,
    model_from_policy,
)
from repro.serving.stream import POPULARITY_EXPONENT, QueryStream
from repro.telemetry import Telemetry

#: The default sweep, as fractions of the model's predicted saturation.
GRID_FRACTIONS = (0.3, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5)
#: The knee is the first rate at which the busiest core is this busy.
KNEE_UTILIZATION = 0.95


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one saturation campaign.

    ``qps_grid`` pins the sweep explicitly; when empty, the grid is
    ``GRID_FRACTIONS`` of the queueing model's predicted saturation, so
    the sweep always straddles the knee.  ``admission`` bounds the
    in-flight population above saturation (open-loop load would otherwise
    grow the ISN queues — and simulator memory — without bound);
    ``None`` disables shedding entirely.
    """

    qps_grid: tuple[float, ...] = ()
    queries_per_point: int = 4000
    arrival: str = "poisson"
    seed: int = 0
    admission: AdmissionConfig | None = field(
        default_factory=lambda: AdmissionConfig(max_in_flight=512)
    )
    cache_capacity: int = 0  # aggregator result cache; 0 = off (knee gate assumes off)

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"arrival must be one of {ARRIVAL_KINDS}")
        if self.queries_per_point < 1:
            raise ValueError("queries_per_point must be positive")
        if not all(0 < r < math.inf for r in self.qps_grid):
            raise ValueError("grid rates must be positive and finite")
        if self.cache_capacity < 0:
            raise ValueError("cache capacity must be non-negative")


@dataclass(frozen=True)
class SweepPoint:
    """One measured throughput–latency–power point."""

    offered_qps: float
    realized_qps: float  # offered_queries / measured arrival window
    offered_queries: int
    completed: int
    shed: int
    from_cache: int
    elapsed_ms: float
    goodput_qps: float
    # None when every query of the point was shed: no latency to report.
    mean_latency_ms: float | None
    p50_ms: float | None
    p95_ms: float | None
    p99_ms: float | None
    max_latency_ms: float | None
    average_power_w: float
    max_core_utilization: float
    predicted_mean_latency_ms: float
    result_cache_hit_rate: float

    @property
    def goodput_ratio(self) -> float:
        """Goodput over the *realized* offered rate: the point's SLO outcome.

        Ratioing against the nominal grid rate would fold the Poisson
        realization of a finite window (±1/sqrt(n)) into it; the realized
        rate cancels that, leaving shed queries and post-window drain time.
        """
        return self.goodput_qps / self.realized_qps if self.realized_qps else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "offered_qps": self.offered_qps,
            "realized_qps": self.realized_qps,
            "offered_queries": self.offered_queries,
            "completed": self.completed,
            "shed": self.shed,
            "from_cache": self.from_cache,
            "elapsed_ms": self.elapsed_ms,
            "goodput_qps": self.goodput_qps,
            "goodput_ratio": self.goodput_ratio,
            "mean_latency_ms": self.mean_latency_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_latency_ms": self.max_latency_ms,
            "average_power_w": self.average_power_w,
            "max_core_utilization": self.max_core_utilization,
            "predicted_mean_latency_ms": self.predicted_mean_latency_ms,
            "result_cache_hit_rate": self.result_cache_hit_rate,
        }


@dataclass(frozen=True)
class CampaignResult:
    """A full sweep plus the model-vs-measurement verdict."""

    policy_name: str
    arrival: str
    seed: int
    points: tuple[SweepPoint, ...]
    model: ClusterQueueingModel
    knee: KneeEstimate
    predicted_knee_qps: float
    total_queries: int

    @property
    def knee_ratio(self) -> float:
        """Measured knee over predicted saturation (1.0 = exact agreement)."""
        if self.predicted_knee_qps <= 0:
            return float("inf")
        return self.knee.knee_qps / self.predicted_knee_qps

    def knee_within(self, rel_tolerance: float) -> bool:
        """The acceptance gate: saturated sweep, knee near the prediction."""
        return self.knee.saturated and abs(self.knee_ratio - 1.0) <= rel_tolerance

    def snapshot(self) -> dict[str, object]:
        return {
            "policy": self.policy_name,
            "arrival": self.arrival,
            "seed": self.seed,
            "total_queries": self.total_queries,
            "predicted_knee_qps": self.predicted_knee_qps,
            "measured_knee_qps": self.knee.knee_qps,
            "knee_ratio": self.knee_ratio,
            "knee": self.knee.snapshot(),
            "model": self.model.snapshot(),
            "points": [point.snapshot() for point in self.points],
        }


def zipf_weights(n: int, exponent: float) -> NDArray[np.float64]:
    """The pool's popularity mass (rank-Zipf, same law the streams sample)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def run_campaign(
    cluster: SearchCluster,
    policy_factory: Callable[[], SelectionPolicy],
    pool: Sequence[tuple[str, ...]],
    config: CampaignConfig | None = None,
    telemetry: Telemetry | None = None,
    on_point: Callable[[SweepPoint], None] | None = None,
) -> CampaignResult:
    """Sweep offered QPS over ``pool`` and locate the saturation knee.

    ``policy_factory`` must return a *fresh* policy per call — one is
    consumed to close the queueing model, then one per sweep point.
    ``on_point`` (when given) observes each point as it lands, for
    progress reporting.
    """
    config = config or CampaignConfig()
    weights = zipf_weights(len(pool), POPULARITY_EXPONENT)
    model_policy = policy_factory()
    model = model_from_policy(cluster, pool, weights.tolist(), model_policy)
    predicted = model.saturation_qps()
    if config.qps_grid:
        grid: tuple[float, ...] = tuple(sorted(config.qps_grid))
    else:
        grid = tuple(fraction * predicted for fraction in GRID_FRACTIONS)
    points: list[SweepPoint] = []
    for index, offered in enumerate(grid):
        arrivals = make_arrivals(config.arrival, offered, seed=config.seed + 100 * index)
        stream = QueryStream(
            pool,
            arrivals,
            popularity_exponent=POPULARITY_EXPONENT,
            seed=config.seed + 100 * index + 50,
            max_queries=config.queries_per_point,
        )
        admission = (
            AdmissionController(config.admission)
            if config.admission is not None
            else None
        )
        cache = (
            ResultCache(config.cache_capacity) if config.cache_capacity else None
        )
        run = cluster.serve(
            stream,
            policy_factory(),
            admission=admission,
            retain_records=False,
            cache=cache,
            telemetry=telemetry,
        )
        stats = run.serving
        assert stats is not None  # retain_records=False guarantees the sink
        elapsed_s = run.elapsed_ms / 1000.0
        window_s = stats.last_arrival_ms / 1000.0
        utilization = run.power.per_core_utilization
        served = stats.completed > 0
        point = SweepPoint(
            offered_qps=offered,
            realized_qps=run.offered_queries / window_s if window_s > 0 else 0.0,
            offered_queries=run.offered_queries,
            completed=stats.completed,
            shed=stats.shed,
            from_cache=stats.from_cache,
            elapsed_ms=run.elapsed_ms,
            goodput_qps=stats.completed / elapsed_s,
            mean_latency_ms=stats.mean_latency_ms if served else None,
            p50_ms=stats.percentile_ms(50) if served else None,
            p95_ms=stats.percentile_ms(95) if served else None,
            p99_ms=stats.percentile_ms(99) if served else None,
            max_latency_ms=stats.max_latency_ms if served else None,
            average_power_w=run.power.average_power_w,
            max_core_utilization=max(utilization, default=0.0),
            predicted_mean_latency_ms=model.mean_latency_ms(offered),
            result_cache_hit_rate=run.result_cache_hit_rate,
        )
        points.append(point)
        if on_point is not None:
            on_point(point)
    # Knee on the realized-rate axis: each point's x is the arrival rate
    # the cluster actually saw, so the crossing compares like with like
    # against the model's rate axis.
    knee = locate_knee(
        [p.realized_qps for p in points],
        [p.max_core_utilization for p in points],
        threshold=KNEE_UTILIZATION,
    )
    return CampaignResult(
        policy_name=model_policy.name,
        arrival=config.arrival,
        seed=config.seed,
        points=tuple(points),
        model=model,
        knee=knee,
        predicted_knee_qps=predicted,
        total_queries=sum(p.offered_queries for p in points),
    )
