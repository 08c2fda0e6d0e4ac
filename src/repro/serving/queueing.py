"""Closed queueing model of the cluster and saturation-knee location.

Each ISN is a FIFO single server (``tests/test_queueing_theory.py`` pins
the simulator to the M/D/1 Lindley recursion), so the cluster under a
selection policy is a fork-join of M/G/1 queues: shard *i* sees a thinned
Poisson stream of rate ``lambda * p_i`` (``p_i`` = the policy's selection
probability) with service moments taken over the queries that select it
(budget-truncated — an ISN aborts at the deadline, so no job occupies the
server longer than the budget).

That closes two predictions the campaign validates against measurement:

* **saturation**: the cluster's goodput ceiling is the bottleneck shard's
  capacity, ``lambda_sat = min_i 1 / (p_i * E[S_i])`` — beyond it the
  bottleneck's utilization exceeds 1 and queues grow without bound;
* **waiting**: below saturation, shard *i*'s mean FIFO wait follows
  Pollaczek–Khinchine, ``W_i = lambda_i * E[S_i^2] / (2 (1 - rho_i))``.

The measured knee is where the same quantity saturates in the sweep: the
first offered rate at which the busiest core's measured utilization
reaches ``threshold``, interpolated at the crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.engine import SearchCluster
from repro.cluster.types import ClusterView, SelectionPolicy
from repro.retrieval.query import Query


@dataclass(frozen=True)
class ShardLoadModel:
    """One shard's load statistics under a policy (popularity-weighted).

    ``selection_prob`` is the probability a query selects this shard;
    the service moments are conditional on selection, at the decided
    frequency, truncated at the decided budget.
    """

    shard_id: int
    selection_prob: float
    mean_service_ms: float
    second_moment_ms2: float

    @property
    def capacity_qps(self) -> float:
        """Max sustainable cluster arrival rate before *this* shard saturates."""
        demand = self.selection_prob * self.mean_service_ms
        return 1000.0 / demand if demand > 0 else float("inf")


@dataclass(frozen=True)
class ClusterQueueingModel:
    """Fork-join of per-shard M/G/1 queues under one policy."""

    shards: tuple[ShardLoadModel, ...]
    overhead_ms: float  # coordination + two network hops, load-independent

    def utilization(self, offered_qps: float) -> tuple[float, ...]:
        """Per-shard rho at the given cluster arrival rate."""
        lam = offered_qps / 1000.0  # queries per ms
        return tuple(
            lam * s.selection_prob * s.mean_service_ms for s in self.shards
        )

    @property
    def bottleneck(self) -> ShardLoadModel:
        return min(self.shards, key=lambda s: s.capacity_qps)

    def saturation_qps(self) -> float:
        """Predicted knee: the bottleneck shard's capacity."""
        return self.bottleneck.capacity_qps

    def mean_wait_ms(self, offered_qps: float, shard_id: int) -> float:
        """Pollaczek–Khinchine mean FIFO wait at one shard (inf if rho >= 1)."""
        shard = self.shards[shard_id]
        lam = offered_qps / 1000.0 * shard.selection_prob
        rho = lam * shard.mean_service_ms
        if rho >= 1.0:
            return float("inf")
        return lam * shard.second_moment_ms2 / (2.0 * (1.0 - rho))

    def mean_latency_ms(self, offered_qps: float) -> float:
        """Lower-bound fork-join latency: the slowest shard's W + E[S].

        The true mean of a max over shards is above any single shard's
        mean, so this is a floor — good enough to show the hockey-stick
        shape and its divergence point, which is what the gate checks.
        """
        worst = max(
            self.mean_wait_ms(offered_qps, s.shard_id) + s.mean_service_ms
            for s in self.shards
            if s.selection_prob > 0
        )
        return self.overhead_ms + worst

    def snapshot(self) -> dict[str, object]:
        return {
            "overhead_ms": self.overhead_ms,
            "saturation_qps": self.saturation_qps(),
            "bottleneck_shard": self.bottleneck.shard_id,
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "selection_prob": s.selection_prob,
                    "mean_service_ms": s.mean_service_ms,
                    "second_moment_ms2": s.second_moment_ms2,
                    "capacity_qps": s.capacity_qps,
                }
                for s in self.shards
            ],
        }


def model_from_policy(
    cluster: SearchCluster,
    pool: Sequence[tuple[str, ...]],
    weights: Sequence[float],
    policy: SelectionPolicy,
) -> ClusterQueueingModel:
    """Close the model by replaying the pool through ``policy`` offline.

    Every distinct query is decided against an idle cluster view; its
    popularity weight accumulates into the selected shards' selection
    probability and (budget-truncated, frequency-adjusted) service
    moments.  Retrieval here is the same memoized oracle the simulator
    uses, so the model and the measurement share one ground truth.

    The policy instance should be dedicated to this call: adaptive
    policies mutate on ``decide``/``observe``, and reusing the campaign's
    instance would let the model run perturb the measurement.
    """
    if len(weights) != len(pool):
        raise ValueError("one popularity weight per pool query")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ValueError("popularity weights must sum to a positive mass")
    n = cluster.n_shards
    view = ClusterView(
        now_ms=0.0,
        n_shards=n,
        default_freq_ghz=cluster.freq_scale.default_ghz,
        max_freq_ghz=cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(0.0 for _ in range(n)),
    )
    prob = [0.0] * n
    m1 = [0.0] * n
    m2 = [0.0] * n
    coordination = 0.0
    prewarm = getattr(policy, "prewarm", None)
    queries = [
        Query(query_id=i, terms=terms, text=" ".join(terms))
        for i, terms in enumerate(pool)
    ]
    if prewarm is not None:
        prewarm(queries)
    for query, weight in zip(queries, weights):
        w = float(weight) / total_weight
        decision = policy.decide(query, view)
        coordination += w * decision.coordination_delay_ms
        for sid in decision.shard_ids:
            freq = decision.frequency_overrides.get(
                sid, cluster.freq_scale.default_ghz
            )
            service = cluster.service_time_ms(query, sid, freq)
            if decision.time_budget_ms is not None:
                service = min(service, decision.time_budget_ms)
            prob[sid] += w
            m1[sid] += w * service
            m2[sid] += w * service * service
    shards = tuple(
        ShardLoadModel(
            shard_id=sid,
            selection_prob=prob[sid],
            mean_service_ms=m1[sid] / prob[sid] if prob[sid] > 0 else 0.0,
            second_moment_ms2=m2[sid] / prob[sid] if prob[sid] > 0 else 0.0,
        )
        for sid in range(n)
    )
    overhead = coordination + 2.0 * cluster.network.delay_ms()
    return ClusterQueueingModel(shards=shards, overhead_ms=overhead)


@dataclass(frozen=True)
class KneeEstimate:
    """Where the busiest core's measured utilization reaches the threshold."""

    knee_qps: float
    threshold: float
    saturated: bool  # the sweep actually crossed the threshold

    def snapshot(self) -> dict[str, object]:
        return {
            "knee_qps": self.knee_qps,
            "threshold": self.threshold,
            "saturated": self.saturated,
        }


def locate_knee(
    offered_qps: Sequence[float],
    utilization: Sequence[float],
    threshold: float = 0.95,
) -> KneeEstimate:
    """The capacity knee: the first rate whose busiest core is >= ``threshold`` busy.

    ``utilization`` is each point's ``max_core_utilization``, the
    bottleneck shard's rho that the queueing model's saturation sends to
    1.  Points must be sorted by offered rate.  The knee interpolates
    utilization linearly at the threshold crossing; if the sweep never
    crosses, the top of the grid is returned un-saturated (callers should
    widen the grid), and if even the first point is at or above the
    threshold, that point is returned saturated.  Shedding moves neither
    axis the wrong way: a query no load could serve in time keeps no core
    busy, and a backlog that sheds does so because its core is.
    """
    if len(offered_qps) != len(utilization) or not offered_qps:
        raise ValueError("need matching, non-empty offered/utilization vectors")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    above = [i for i, u in enumerate(utilization) if u >= threshold]
    if not above:
        return KneeEstimate(
            knee_qps=float(offered_qps[-1]), threshold=threshold, saturated=False
        )
    first_above = above[0]
    if first_above == 0:
        return KneeEstimate(
            knee_qps=float(offered_qps[0]), threshold=threshold, saturated=True
        )
    i, j = first_above - 1, first_above
    ui, uj = utilization[i], utilization[j]
    # Linear interpolation of the utilization curve at the crossing.
    frac = (threshold - ui) / (uj - ui)
    knee = offered_qps[i] + frac * (offered_qps[j] - offered_qps[i])
    return KneeEstimate(knee_qps=float(knee), threshold=threshold, saturated=True)
