"""The Cottage policy: coordinated per-query time-budget assignment.

Implements the paper's full control loop (Fig. 5): every ISN predicts its
quality contribution (NN over Table-I features) and its service latency
(NN over Table-II features, queue-aware per Eq. 2); the aggregator runs
Algorithm 1 over the reported tuples, cuts zero-quality and
slow-zero-K/2-quality ISNs, sets the minimal time budget, and boosts the
CPU frequency of kept ISNs whose current-frequency latency exceeds it.
"""

from __future__ import annotations

from repro.cluster.cpu import scaled_service_ms
from repro.cluster.network import NetworkModel
from repro.cluster.types import ClusterView, Decision
from repro.core.budget import BudgetInput, determine_time_budget
from repro.policies.base import BasePolicy
from repro.predictors.bank import PredictorBank
from repro.retrieval.query import Query
from repro.telemetry import NO_TELEMETRY, Telemetry


#: Boost an ISN already at ``BOOST_MARGIN * budget`` predicted latency
#: rather than exactly at the budget, absorbing latency under-prediction
#: (1.0 is the paper's literal rule; ``determine_time_budget`` takes either).
BOOST_MARGIN = 0.8

# (per-shard rows (shard, Q^K, Q^{K/2}, S*f_d/f_d, S*f_d/f_max), predicted S by shard)
_StaticRow = tuple[list[tuple[int, int, int, float, float]], dict[int, float]]


class CottagePolicy(BasePolicy):
    """Coordinated quality/latency-aware selection with frequency boosting."""

    name = "cottage"

    def __init__(
        self,
        bank: PredictorBank,
        budget_slack: float = 1.3,
        cut_confidence: float = 0.9,
        half_cut_confidence: float = 0.75,
        enable_boost: bool = True,
        pivot_on_full_k: bool = False,
        network: NetworkModel | None = None,
    ) -> None:
        """
        Parameters
        ----------
        bank:
            Trained per-shard predictor bank.
        budget_slack:
            Multiplier applied to Algorithm 1's budget before broadcast.
            The latency predictor is a bin classifier, so roughly half of
            all predictions sit below the true service time; a slack of one
            bin width (~15%) absorbs that quantization — without it, kept
            ISNs routinely miss the deadline they were kept *for*.  Set to
            1.0 for the paper's literal budget (ablated by the
            ``beyond.ablation_budget_rule`` claim).
        cut_confidence:
            Minimum softmax probability of the zero class before a
            predicted Q^K = 0 actually cuts the ISN (stage 1 of Algorithm
            1).  Below it the ISN is kept as a potential 1-doc contributor.
            The paper's testbed reaches 95% quality-prediction accuracy and
            cuts on the raw argmax; at reproduction scale labels are
            noisier, and confidence gating recovers the paper's
            keep-what-matters behaviour (ablated by the
            ``beyond.ablation_confidence`` claim).  Set to 0 for the
            literal argmax rule.
        half_cut_confidence:
            Same gate for the stage-2 Q^{K/2} = 0 test that sacrifices
            slow ISNs.
        enable_boost:
            Ablation switch: with boosting disabled, Algorithm 1 runs on
            current-frequency latencies and no ISN changes frequency
            (the ``beyond.ablation_boost`` claim).
        pivot_on_full_k:
            Ablation switch: pivot stage 2 on Q^K instead of Q^{K/2} —
            never sacrifice any top-K contributor, at the cost of a larger
            budget (the ``beyond.ablation_budget_rule`` claim).
        network:
            Network model used to charge the predict-and-report round.
        """
        if not bank.trained:
            raise ValueError("predictor bank must be trained first")
        if budget_slack < 1.0:
            raise ValueError("budget slack cannot shrink the budget")
        if not 0.0 <= cut_confidence <= 1.0 or not 0.0 <= half_cut_confidence <= 1.0:
            raise ValueError("confidence gates must be in [0, 1]")
        self.bank = bank
        self.budget_slack = budget_slack
        self.cut_confidence = cut_confidence
        self.half_cut_confidence = half_cut_confidence
        self.enable_boost = enable_boost
        self.pivot_on_full_k = pivot_on_full_k
        self.network = network or NetworkModel()
        # Per distinct term tuple, everything about a decision that does
        # not depend on the live queues (see _static_row); valid for the
        # frequency pair it was built with.
        self._static_rows: dict[tuple[str, ...], _StaticRow] = {}
        self._static_freqs: tuple[float, float] | None = None

    # ------------------------------------------------------------------ logic
    def budget_inputs(self, query: Query, view: ClusterView) -> list[BudgetInput]:
        """Assemble each ISN's <Q^K, Q^{K/2}, L_current, L_boosted> tuple.

        Latencies are *equivalent latencies* (Eq. 2, adapted — see
        :func:`repro.cluster.cpu.equivalent_latency_ms`): the ISN's queued
        work plus this query's predicted service time scaled to the
        candidate frequency (Eq. 1).  Only the queue term is live; the
        rest comes from the query-static row.
        """
        return self._live_inputs(self._static_row(query, view), view)

    @staticmethod
    def _live_inputs(static: "_StaticRow", view: ClusterView) -> list[BudgetInput]:
        """Add the live queue vector (Eq. 2's queue term) to a static row."""
        queues = view.queued_predicted_ms
        if min(queues) < 0:
            raise ValueError("latencies cannot be negative")
        new = tuple.__new__  # the static row was validated when it was built
        return [
            new(BudgetInput, (sid, q_k, q_half, queues[sid] + current, queues[sid] + boosted))
            for sid, q_k, q_half, current, boosted in static[0]
        ]

    def _static_row(self, query: Query, view: ClusterView) -> "_StaticRow":
        """The query-static part of a decision, memoized per term tuple.

        Per shard ``(shard, gated Q^K, gated Q^{K/2}, S*f_d/f_d,
        S*f_d/f_max)`` — the confidence gates and both Eq.-1 scalings
        depend only on the (memoized) predictions, the policy's knobs and
        the cluster's frequency pair — plus the predicted service times
        by shard that ride along on the :class:`Decision`.  A miss asks
        the bank, recording into the run's session (``view.telemetry``).
        """
        freqs = (view.default_freq_ghz, view.max_freq_ghz)
        if freqs != self._static_freqs:
            self._static_rows.clear()
            self._static_freqs = freqs
        static = self._static_rows.get(query.terms)
        if static is None:
            default_ghz, max_ghz = freqs
            rows: list[tuple[int, int, int, float, float]] = []
            service_ms: dict[int, float] = {}
            telemetry = view.telemetry
            for prediction, (q_k, q_half) in zip(
                self.bank.predict(query, telemetry), self._qualities(query, telemetry)
            ):
                sid = prediction.shard_id
                predicted = prediction.service_default_ms
                current = scaled_service_ms(predicted, default_ghz, default_ghz)
                boosted = (
                    scaled_service_ms(predicted, default_ghz, max_ghz)
                    if self.enable_boost
                    else current
                )
                if self.pivot_on_full_k:
                    q_half = q_k
                # Validate the row once, here: adding a queue >= 0 to both
                # latencies keeps every BudgetInput invariant.
                BudgetInput(sid, q_k, q_half, current, boosted)
                rows.append((sid, q_k, q_half, current, boosted))
                service_ms[sid] = predicted
            static = self._static_rows[query.terms] = (rows, service_ms)
        return static

    def _qualities(self, query: Query, telemetry: Telemetry) -> list[tuple[int, int]]:
        """Per shard (Q^K, Q^{K/2}) as Algorithm 1 should see them."""
        return [
            (
                self._gated(p.quality_k, p.p_zero_k, self.cut_confidence),
                self._gated(p.quality_half_k, p.p_zero_half, self.half_cut_confidence),
            )
            for p in self.bank.predict(query, telemetry)
        ]

    @staticmethod
    def _gated(count: int, p_zero: float, confidence: float) -> int:
        """A predicted zero only counts as zero when confidently zero."""
        if count == 0 and p_zero < confidence:
            return 1
        return count

    def coordination_delay_ms(self) -> float:
        """Steps 1-5 of Fig. 5: broadcast, parallel inference, report back.

        Two extra one-way messages beyond the dispatch the aggregator
        already charges, plus the slowest ISN's inference time.
        """
        return 2.0 * self.network.delay_ms() + self.bank.coordination_overhead_ms()

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> None:
        """Batch-predict the whole trace through the fused kernels.

        Predictions are pure and memoized per distinct term tuple, so
        every subsequent :meth:`decide` hits the bank's cache; decisions
        are unchanged.
        """
        self.bank.prewarm(queries, telemetry)

    def decide(self, query: Query, view: ClusterView) -> Decision:
        telemetry = view.telemetry
        if not telemetry.enabled:
            static = self._static_row(query, view)
            decision = determine_time_budget(
                self._live_inputs(static, view), boost_margin=BOOST_MARGIN
            )
        else:
            # The two halves of the coordination round (paper Fig. 5 steps
            # 1-4): per-ISN prediction, then Algorithm 1.  Both nest under
            # the aggregator's decide span on its track.
            tracer = telemetry.tracer
            with tracer.span("policy.predict", track="aggregator", qid=query.query_id):
                static = self._static_row(query, view)
                inputs = self._live_inputs(static, view)
            with tracer.span(
                "policy.budget_assign", track="aggregator", qid=query.query_id
            ):
                decision = determine_time_budget(
                    inputs, boost_margin=BOOST_MARGIN
                )
            metrics = telemetry.metrics
            metrics.counter("cottage.cut_zero_quality").add(
                len(decision.cut_zero_quality)
            )
            metrics.counter("cottage.cut_too_slow").add(len(decision.cut_too_slow))
            metrics.counter("cottage.boosted").add(len(decision.boosted))
            metrics.counter("cottage.kept").add(len(decision.selected))
        # The bank's per-shard service predictions ride along on the
        # decision so the aggregator's hedge planner works from the same
        # estimates Algorithm 1 did.
        predicted = static[1]
        if not decision.selected:
            # Predicted zero quality everywhere — run the single most
            # plausible shard instead of answering empty (a pure fallback;
            # with a trained bank this is rare).
            best = max(
                self.bank.predict(query, telemetry),
                key=lambda p: (p.quality_k, -p.shard_id),
            )
            return Decision(
                shard_ids=(best.shard_id,),
                coordination_delay_ms=self.coordination_delay_ms(),
                predicted_service_ms={best.shard_id: predicted[best.shard_id]},
            )
        # Algorithm 1 always sets a budget when anything is selected.
        assert decision.time_budget_ms is not None
        budget = decision.time_budget_ms * self.budget_slack
        overrides = (
            {sid: view.max_freq_ghz for sid in decision.boosted}
            if self.enable_boost
            else {}
        )
        return Decision(
            shard_ids=decision.selected,
            time_budget_ms=budget,
            frequency_overrides=overrides,
            coordination_delay_ms=self.coordination_delay_ms(),
            predicted_service_ms={
                sid: predicted[sid] for sid in decision.selected
            },
        )
