"""Estimate sources: what :class:`~repro.core.cottage.CottagePolicy` runs
Algorithm 1 over, per shard <Q^K, Q^{K/2}, p_zero, S>.

A trained :class:`~repro.predictors.bank.PredictorBank` is Cottage's own
source.  :class:`TailyEstimates` (Cottage-withoutML, Fig. 15) and
:class:`ExactEstimates` (the oracle) swap in other inputs; both report
``p_zero`` 1.0, so every zero they give cuts.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.engine import SearchCluster
from repro.metrics.quality import GroundTruth
from repro.predictors.bank import ISNPrediction, PredictorBank
from repro.predictors.gamma_quality import TailyQualityEstimator
from repro.retrieval.query import Query
from repro.telemetry import NO_TELEMETRY, Telemetry


class TailyEstimates:
    """The bank's predictions with Taily's Gamma counts as Q^K and Q^{K/2}:
    latency stays neural, and the ISNs still run the bank's round."""

    policy_name = "cottage_without_ml"

    def __init__(self, bank: PredictorBank, estimator: TailyQualityEstimator) -> None:
        self.bank = bank
        self.estimator = estimator

    @property
    def trained(self) -> bool:
        return self.bank.trained

    def predict(
        self, query: Query, telemetry: Telemetry = NO_TELEMETRY
    ) -> tuple[ISNPrediction, ...]:
        k = self.bank.k
        counts_k = self.estimator.quality_counts(query.terms, k)
        counts_half = self.estimator.quality_counts(query.terms, max(k // 2, 1))
        return tuple(
            replace(p, quality_k=q_k, quality_half_k=q_half, p_zero_k=1.0, p_zero_half=1.0)
            for p, q_k, q_half in zip(self.bank.predict(query, telemetry), counts_k, counts_half)
        )

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> int:
        return self.bank.prewarm(queries, telemetry)

    def coordination_overhead_ms(self) -> float:
        return self.bank.coordination_overhead_ms()


class ExactEstimates:
    """Each shard's true top-K and top-K/2 contributions (``truth``, filled
    per query on demand) and true service time, searched under the run's
    telemetry.  Nothing is predicted, so no ISN is asked: no overhead."""

    policy_name = "oracle"
    trained = True

    def __init__(self, cluster: SearchCluster, truth: GroundTruth) -> None:
        self.cluster = cluster
        self.truth = truth

    def predict(
        self, query: Query, telemetry: Telemetry = NO_TELEMETRY
    ) -> tuple[ISNPrediction, ...]:
        cluster = self.cluster
        truth = self.truth.ensure(cluster.searcher, query)
        return tuple(
            ISNPrediction(
                sid,
                truth.contributions_k.get(sid, 0),
                truth.contributions_half_k.get(sid, 0),
                cluster.service_time_ms(query, sid, telemetry=telemetry),
            )
            for sid in range(cluster.n_shards)
        )

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> None:
        """Nothing to batch: the truth fills per query."""

    def coordination_overhead_ms(self) -> float:
        return 0.0


#: The three sources; each has ``trained``, ``predict``, ``prewarm`` and
#: ``coordination_overhead_ms``.
EstimateSource = PredictorBank | TailyEstimates | ExactEstimates
