"""Cottage-ISN, the Fig. 15 ablation that drops coordination (Section V-D).

Each ISN decides alone, from purely local information, whether to
participate and whether to boost.  There is no global budget, so the
aggregator waits for every participating ISN — quantifying what the
coordinated design buys.  (Cottage-withoutML keeps Algorithm 1 and swaps
only its quality estimates: ``CottagePolicy`` over
:class:`~repro.core.sources.TailyEstimates`.)
"""

from __future__ import annotations

from repro.cluster.cpu import equivalent_latency_ms
from repro.cluster.network import NetworkModel
from repro.cluster.types import ClusterView, Decision, QueryRecord
from repro.policies.base import BasePolicy
from repro.predictors.bank import PredictorBank
from repro.retrieval.query import Query
from repro.telemetry import NO_TELEMETRY, Telemetry


class CottageISNPolicy(BasePolicy):
    """Uncoordinated variant: per-ISN local decisions, no global budget.

    Each ISN, seeing only its own predictions, (a) opts out when its
    predicted Q^K is zero and (b) boosts its own frequency when its
    queue-aware latency exceeds its running average of past service times.
    Without the aggregator's global view there is no time budget, so the
    response waits for the slowest participant — the coordination gap the
    Fig. 15 ablation measures.
    """

    name = "cottage_isn"

    def __init__(
        self,
        bank: PredictorBank,
        boost_over_average: float = 1.0,
        cut_confidence: float = 0.9,
        network: NetworkModel | None = None,
    ) -> None:
        if not bank.trained:
            raise ValueError("predictor bank must be trained first")
        if not 0.0 <= cut_confidence <= 1.0:
            raise ValueError("cut_confidence must be in [0, 1]")
        self.bank = bank
        self.boost_over_average = boost_over_average
        self.cut_confidence = cut_confidence
        self.network = network or NetworkModel()
        # Running per-shard mean of observed service times — each ISN's
        # only notion of "slow for me" without global visibility.
        self._mean_service_ms: list[float] = [10.0] * bank.n_shards
        self._observations: list[int] = [0] * bank.n_shards

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> None:
        """Batch-predict the trace up front (see CottagePolicy.prewarm).

        Unlike coordinated Cottage, this variant's bank work is not traced.
        """
        self.bank.prewarm(queries)

    def decide(self, query: Query, view: ClusterView) -> Decision:
        selected: list[int] = []
        overrides: dict[int, float] = {}
        for prediction in self.bank.predict(query):
            # Same confidence-gated zero test as coordinated Cottage: this
            # variant removes coordination, not the quality machinery.
            if prediction.quality_k == 0 and prediction.p_zero_k >= self.cut_confidence:
                continue
            sid = prediction.shard_id
            selected.append(sid)
            local_latency = equivalent_latency_ms(
                view.queued_predicted_ms[sid],
                prediction.service_default_ms,
                view.default_freq_ghz,
                view.default_freq_ghz,
            )
            threshold = self.boost_over_average * self._mean_service_ms[sid]
            if local_latency > threshold:
                overrides[sid] = view.max_freq_ghz
        if not selected:
            best = max(
                self.bank.predict(query), key=lambda p: (p.quality_k, -p.shard_id)
            )
            selected = [best.shard_id]
            overrides = {}
        return Decision(
            shard_ids=tuple(selected),
            frequency_overrides=overrides,
            # Local inference only: no report-back round.
            coordination_delay_ms=self.bank.coordination_overhead_ms(),
        )

    def observe(self, record: QueryRecord) -> None:
        for outcome in record.outcomes:
            sid = outcome.shard_id
            n = self._observations[sid] + 1
            self._observations[sid] = n
            self._mean_service_ms[sid] += (
                outcome.service_ms - self._mean_service_ms[sid]
            ) / n
