"""The Cottage policy: coordinated per-query time-budget assignment.

Implements the paper's full control loop (Fig. 5): every ISN predicts its
quality contribution (NN over Table-I features) and its service latency
(NN over Table-II features, queue-aware per Eq. 2); the aggregator runs
Algorithm 1 over the reported tuples, cuts zero-quality and
slow-zero-K/2-quality ISNs, sets the minimal time budget, and boosts the
CPU frequency of kept ISNs whose current-frequency latency exceeds it.
Over another estimate source (:mod:`repro.core.sources`) it is
Cottage-withoutML or the oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cluster.cpu import scaled_service_ms
from repro.cluster.network import NetworkModel
from repro.cluster.types import ClusterView, Decision
from repro.core.budget import BudgetInput, Survivor, assign_budget, cut_zero_quality
from repro.core.sources import EstimateSource
from repro.policies.base import BasePolicy
from repro.retrieval.query import Query
from repro.telemetry import NO_TELEMETRY, Telemetry


#: Boost an ISN already at ``BOOST_MARGIN * budget`` predicted latency
#: rather than exactly at the budget, absorbing latency under-prediction
#: (1.0 is the paper's literal rule, and the oracle's).
BOOST_MARGIN = 0.8


class _StaticRow(NamedTuple):
    """What one query's decision does not take from the live queues."""

    # Per shard (shard, Q^K, Q^{K/2}, S*f_d/f_d, S*f_d/f_max).
    rows: list[tuple[int, int, int, float, float]]
    service_ms: dict[int, float]  # predicted S by shard
    cut_zero: tuple[int, ...]  # Algorithm 1's stage 1 over ``rows`` ...
    survivors: list[Survivor]  # ... and what its stage 2 walks


class CottagePolicy(BasePolicy):
    """Coordinated quality/latency-aware selection with frequency boosting."""

    name = "cottage"

    def __init__(
        self,
        source: EstimateSource,
        budget_slack: float = 1.3,
        cut_confidence: float = 0.9,
        half_cut_confidence: float = 0.75,
        enable_boost: bool = True,
        pivot_on_full_k: bool = False,
        boost_margin: float = BOOST_MARGIN,
        network: NetworkModel | None = None,
    ) -> None:
        """
        Parameters
        ----------
        source:
            Per-shard estimates: a trained predictor bank (Cottage) or a
            :mod:`repro.core.sources` source, whose ``policy_name`` it takes.
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
        boost_margin:
            A kept ISN boosts once its current-frequency latency passes
            this share of the budget (:data:`BOOST_MARGIN`).
        network:
            Network model used to charge the predict-and-report round; a
            source with no inference overhead asks no ISN, so pays none.
        """
        if not source.trained:
            raise ValueError("predictor bank must be trained first")
        if budget_slack < 1.0:
            raise ValueError("budget slack cannot shrink the budget")
        if not 0.0 <= cut_confidence <= 1.0 or not 0.0 <= half_cut_confidence <= 1.0:
            raise ValueError("confidence gates must be in [0, 1]")
        if not 0.0 < boost_margin <= 1.0:
            raise ValueError("boost_margin must be in (0, 1]")
        self.source = source
        self.name = getattr(source, "policy_name", CottagePolicy.name)
        self.budget_slack = budget_slack
        self.cut_confidence = cut_confidence
        self.half_cut_confidence = half_cut_confidence
        self.enable_boost = enable_boost
        self.pivot_on_full_k = pivot_on_full_k
        self.boost_margin = boost_margin
        # Steps 1-5 of Fig. 5 (broadcast, parallel inference, report
        # back): two one-way messages beyond the dispatch the aggregator
        # already charges, plus the slowest ISN's inference time.
        overhead = source.coordination_overhead_ms()
        network = network or NetworkModel()
        self.coordination_delay_ms = 2.0 * network.delay_ms() + overhead if overhead > 0 else 0.0
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
        queues = view.queued_predicted_ms
        if min(queues) < 0:
            raise ValueError("latencies cannot be negative")
        new = tuple.__new__  # the static row was validated when it was built
        return [
            new(BudgetInput, (sid, q_k, q_half, queues[sid] + current, queues[sid] + boosted))
            for sid, q_k, q_half, current, boosted in self._static_row(query, view).rows
        ]

    def _static_row(self, query: Query, view: ClusterView) -> "_StaticRow":
        """The query-static part of a decision, memoized per term tuple.

        Per shard ``(shard, gated Q^K, gated Q^{K/2}, S*f_d/f_d,
        S*f_d/f_max)`` — the confidence gates and both Eq.-1 scalings
        depend only on the (memoized) predictions, the policy's knobs and
        the cluster's frequency pair — plus the predicted service times
        by shard that ride along on the :class:`Decision` and Algorithm
        1's stage 1 over those rows.  A miss asks the source once,
        recording into the run's session (``view.telemetry``).
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
            gated = self._gated
            for prediction in self.source.predict(query, view.telemetry):
                sid = prediction.shard_id
                q_k = gated(prediction.quality_k, prediction.p_zero_k, self.cut_confidence)
                q_half = gated(
                    prediction.quality_half_k, prediction.p_zero_half,
                    self.half_cut_confidence,
                )
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
            static = self._static_rows[query.terms] = _StaticRow(
                rows, service_ms, *cut_zero_quality(rows)
            )
        return static

    @staticmethod
    def _gated(count: int, p_zero: float, confidence: float) -> int:
        """A predicted zero only counts as zero when confidently zero."""
        if count == 0 and p_zero < confidence:
            return 1
        return count

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> None:
        """Let the source batch the whole trace (the bank's fused kernels).

        Predictions are pure and memoized per distinct term tuple, so
        every subsequent :meth:`decide` hits the bank's cache; decisions
        are unchanged.
        """
        self.source.prewarm(queries, telemetry)

    def decide(self, query: Query, view: ClusterView) -> Decision:
        telemetry = view.telemetry
        queues = view.queued_predicted_ms
        if min(queues) < 0:
            raise ValueError("latencies cannot be negative")
        if not telemetry.enabled:
            static = self._static_row(query, view)
            selected, budget, boosted, cut_too_slow = assign_budget(
                static.survivors, queues, self.boost_margin
            )
        else:
            # The two halves of the coordination round (paper Fig. 5 steps
            # 1-4): per-ISN prediction, then Algorithm 1.  Both nest under
            # the aggregator's decide span on its track.
            tracer = telemetry.tracer
            with tracer.span("policy.predict", track="aggregator", qid=query.query_id):
                static = self._static_row(query, view)
            with tracer.span(
                "policy.budget_assign", track="aggregator", qid=query.query_id
            ):
                selected, budget, boosted, cut_too_slow = assign_budget(
                    static.survivors, queues, self.boost_margin
                )
            metrics = telemetry.metrics
            metrics.counter("cottage.cut_zero_quality").add(len(static.cut_zero))
            metrics.counter("cottage.cut_too_slow").add(len(cut_too_slow))
            metrics.counter("cottage.boosted").add(len(boosted))
            metrics.counter("cottage.kept").add(len(selected))
        # The source's per-shard service estimates ride along on the
        # decision so the aggregator's hedge planner works from the same
        # estimates Algorithm 1 did.
        predicted = static.service_ms
        if not selected:
            # Every Q^K is a confident zero (say, a query no shard holds),
            # so every shard ties: run the lowest id rather than answer
            # empty.
            best = min(predicted)
            return Decision(
                shard_ids=(best,),
                coordination_delay_ms=self.coordination_delay_ms,
                predicted_service_ms={best: predicted[best]},
            )
        # Algorithm 1 always sets a budget when anything is selected.
        assert budget is not None
        max_ghz = view.max_freq_ghz
        return Decision(
            shard_ids=selected,
            time_budget_ms=budget * self.budget_slack,
            frequency_overrides=(
                {sid: max_ghz for sid in boosted} if self.enable_boost else {}
            ),
            coordination_delay_ms=self.coordination_delay_ms,
            predicted_service_ms={sid: predicted[sid] for sid in selected},
        )
