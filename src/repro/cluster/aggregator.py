"""The aggregator: policy consultation, dispatch, merge, budget enforcement.

Implements the paper's Fig. 5 control flow.  For coordinated policies the
predict-and-report round (steps 1-5) is charged as the decision's
``coordination_delay_ms``; dispatch then fans the query out, each selected
ISN executes within the broadcast budget, and the aggregator merges
whatever arrived by the deadline, dropping stragglers (step 7).

With shard replicas (:mod:`repro.cluster.replicas`) each selected shard
becomes a *request* that may spawn two *attempts* — each attempt is one
:class:`~repro.cluster.isn.Job`, the single per-attempt record the ISN
queues and this module keeps its books on.  Replica 0 always takes the
primary attempt; with a second replica, a backup attempt is scheduled
at the budget-derived hedge instant (see
:func:`repro.cluster.replicas.hedge_delay_ms`) and issued only if the
primary has not answered by then.  The first response recalls the other
attempt (a recall only reaches jobs still queued; an attempt already in
service runs on and its late response is dropped as a duplicate).

Exactly one response per shard is merged and exactly one record per
query is committed — the invariants ``tests/test_hedged_requests.py``
stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable

from repro.cluster.admission import AdmissionController
from repro.cluster.cache import ResultCache
from repro.cluster.events import Simulator
from repro.cluster.isn import ISNServer, Job
from repro.cluster.network import NetworkModel
from repro.cluster.replicas import hedge_delay_ms
from repro.cluster.types import (
    ClusterView,
    Decision,
    QueryRecord,
    SelectionPolicy,
    ShardOutcome,
)
from repro.retrieval.query import Query
from repro.retrieval.result import SearchResult, merge_results
from repro.telemetry import NO_TELEMETRY, Telemetry

_TRACK = "aggregator"
_OUTCOME_ORDER = attrgetter("shard_id", "replica_id")


@dataclass(slots=True, eq=False, repr=False)
class _PendingQuery:
    """Aggregator-side state for one in-flight query.

    ``expected`` holds the shards whose answer is still awaited: a shard
    leaves it when a response is accepted (the attempt joins ``winners``,
    in response order) or when no attempt can answer any more.  Per
    selected shard, ``attempts[shard]`` lists the jobs issued so far (in
    issue order), and ``hedges`` holds the shards whose hedge is scheduled
    but has not fired.
    """

    query: Query
    arrival_ms: float
    decision: Decision
    dispatch_ms: float
    deadline_ms: float | None
    span: Any  # telemetry lifecycle span
    expected: set[int]
    attempts: dict[int, list[Job]] = field(default_factory=dict)
    winners: list[Job] = field(default_factory=list)
    hedges: set[int] = field(default_factory=set)
    outcomes: list[ShardOutcome] = field(default_factory=list)  # in report order
    finalized: bool = False


class Aggregator:
    """Drives queries through the cluster under a selection policy."""

    def __init__(
        self,
        isns: list[list[ISNServer]],
        policy: SelectionPolicy,
        network: NetworkModel,
        sim: Simulator,
        k: int,
        cache: ResultCache | None = None,
        response_timeout_ms: float | None = None,
        telemetry: Telemetry | None = None,
        admission: AdmissionController | None = None,
        record_sink: Callable[[QueryRecord], None] | None = None,
    ) -> None:
        """``isns`` is one replica group per shard, replica 0 first.
        ``response_timeout_ms`` is the safety net for unbudgeted
        policies: with fail-silent ISNs in play, exhaustive-style "wait for
        everyone" would otherwise never answer.  A group of two or more
        replicas hedges each request to its replica 1.

        ``admission`` gates every cache-missing query before the policy
        runs (see :mod:`repro.cluster.admission`): a rejected query is
        answered empty after the controller's fast-reject delay and
        committed with ``shed=True`` — and is *not* shown to the policy's
        ``observe``.  ``record_sink`` replaces the ``records`` list with a
        streaming consumer, so million-query open-loop campaigns retain
        no per-query state.  Both default to ``None``."""
        if not isns:
            raise ValueError("cluster needs at least one ISN")
        if response_timeout_ms is not None and response_timeout_ms <= 0:
            raise ValueError("response timeout must be positive")
        self.groups = isns
        for sid, group in enumerate(self.groups):
            for rid, isn in enumerate(group):
                # Jobs carry the ids their ISN was built with.
                if (isn.shard_id, isn.replica_id) != (sid, rid):
                    raise ValueError("ISN ids must match their position in isns")
        self.policy = policy
        self.network = network
        self.sim = sim
        self.k = k
        self.cache = cache
        self.response_timeout_ms = response_timeout_ms
        self.admission = admission
        self._record_sink = record_sink
        self.records: list[QueryRecord] = []
        # Per term tuple: (sorted response ids, responses, merge); see _merge.
        self._merges: dict[
            tuple[str, ...], tuple[list[int], list[SearchResult], SearchResult]
        ] = {}
        self._net_ms = network.delay_ms()  # one-way hop; the model is frozen
        self._default_freq = self.groups[0][0].freq_scale.default_ghz
        self._max_freq = self.groups[0][0].freq_scale.max_ghz
        # Run-level tail-tolerance accounting (surfaced on RunResult).
        self.queries_seen = 0
        # Serving-plane accounting (all zero without admission control).
        self.admitted = 0
        self.shed_queue_depth = 0
        self.shed_deadline = 0
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.cancels_sent = 0
        self.cancelled_in_queue = 0
        self.duplicates_dropped = 0
        self.total_service_ms = 0.0
        self.counted_service_ms = 0.0
        # Telemetry: the tracer reference is None when disabled, so the
        # per-query hot path pays one attribute test and nothing else.
        telemetry = telemetry or NO_TELEMETRY
        self._telemetry = telemetry  # handed to the policy on every view
        self._tracer = telemetry.tracer if telemetry.enabled else None
        metrics = telemetry.metrics
        self._m_cache_hits = metrics.counter("aggregator.result_cache.hits")
        self._m_cache_misses = metrics.counter("aggregator.result_cache.misses")
        self._m_admitted = metrics.counter("aggregator.admitted")
        self._m_shed = metrics.counter("aggregator.shed")
        self._m_stragglers = metrics.counter("aggregator.stragglers_dropped")
        self._m_hedges = metrics.counter("aggregator.hedges_issued")
        self._m_hedge_wins = metrics.counter("aggregator.hedge_wins")
        self._m_cancels = metrics.counter("aggregator.cancels_sent")
        self._m_duplicates = metrics.counter("aggregator.duplicates_dropped")
        self._m_latency = metrics.histogram("aggregator.latency_ms")
        self._m_budget = metrics.histogram("aggregator.time_budget_ms")
        self._m_slack = metrics.histogram("aggregator.budget_slack_ms")
        self._m_selected = metrics.histogram("aggregator.selected_isns")

    # ---------------------------------------------------------------- intake
    def view(self) -> ClusterView:
        return ClusterView(
            now_ms=self.sim.now,
            n_shards=len(self.groups),
            default_freq_ghz=self._default_freq,
            max_freq_ghz=self._max_freq,
            queued_predicted_ms=tuple(
                [group[0].queued_work_default_ms for group in self.groups]
            ),
            telemetry=self._telemetry,
        )

    def on_query(self, query: Query) -> None:
        """Entry point, fired by the engine at the query's arrival time."""
        sim = self.sim
        arrival = sim.now
        self.queries_seen += 1
        tracer = self._tracer
        qspan = None
        if tracer is not None:
            # Lifecycles overlap (queries are in flight concurrently), so
            # they are *async* spans — one Perfetto nestable track event
            # per query, arrival to response.
            qspan = tracer.async_span("query", track=_TRACK, qid=query.query_id)
        if self.cache is not None:
            cached = self.cache.get(query.terms, self.k, arrival)
            if cached is not None:
                if qspan is not None:
                    self._m_cache_hits.add()
                    qspan.attrs["from_cache"] = True
                    qspan.finish()
                record = QueryRecord(
                    query=query,
                    arrival_ms=arrival,
                    latency_ms=self.cache.lookup_ms,
                    result=cached,
                    decision=Decision(shard_ids=()),
                    from_cache=True,
                )
                self._commit(record)
                return
            if qspan is not None:
                self._m_cache_misses.add()
        # Nothing between admission and the policy touches an ISN queue,
        # so both read the same snapshot.
        view = self.view()
        if self.admission is not None:
            reason = self.admission.admit(query, view, arrival)
            if reason is not None:
                if reason == "deadline":
                    self.shed_deadline += 1
                else:
                    self.shed_queue_depth += 1
                if qspan is not None:
                    self._m_shed.add()
                    qspan.attrs["shed"] = reason
                    qspan.finish()
                record = QueryRecord(
                    query=query,
                    arrival_ms=arrival,
                    latency_ms=self.admission.reject_ms,
                    result=SearchResult(),
                    decision=Decision(shard_ids=()),
                    shed=True,
                )
                self._commit(record)
                return
            self.admission.on_admit(query.query_id, arrival)
        self.admitted += 1
        if qspan is not None:
            self._m_admitted.add()
        if tracer is None:
            decision = self.policy.decide(query, view)
        else:
            # Policy-internal spans (predict, budget-assign) nest inside.
            with tracer.span("aggregator.decide", track=_TRACK, qid=query.query_id):
                decision = self.policy.decide(query, view)
        if not decision.shard_ids:
            # A policy that selects nothing answers immediately and empty.
            if qspan is not None:
                qspan.finish()
            record = QueryRecord(
                query=query,
                arrival_ms=arrival,
                latency_ms=decision.coordination_delay_ms,
                result=SearchResult(),
                decision=decision,
            )
            self._commit(record)
            return

        net_ms = self._net_ms
        dispatch_delay = decision.coordination_delay_ms + net_ms
        dispatch_ms = arrival + dispatch_delay
        budget_ms = decision.time_budget_ms
        deadline = dispatch_ms + budget_ms if budget_ms is not None else None
        pending = _PendingQuery(
            query, arrival, decision, dispatch_ms, deadline, qspan,
            set(decision.shard_ids),
        )
        if qspan is not None:
            self._m_selected.observe(len(decision.shard_ids))
            if budget_ms is not None:
                self._m_budget.observe(budget_ms)

        launch = self._launch
        for sid in decision.shard_ids:
            group = self.groups[sid]
            primary = launch(pending, group[0], "primary", dispatch_ms)
            if len(group) < 2:
                continue  # no backup replica: primary only
            pending.hedges.add(sid)
            delay = hedge_delay_ms(
                budget_ms,
                decision.predicted_service_ms.get(sid, primary.service_default_ms),
                group[1].queued_work_default_ms,
                net_ms,
            )
            sim.schedule_at(dispatch_ms + delay, self._fire_hedge, pending, sid)

        if deadline is not None:
            # Hard stop: merge whatever has arrived once responses from the
            # deadline could have travelled back.  The epsilon makes the
            # deadline inclusive: an ISN finishing exactly on the budget
            # would otherwise lose the same-timestamp tie against this
            # finalize event and be dropped.
            sim.schedule_at(deadline + net_ms + 1e-6, self._finalize, pending)
        elif self.response_timeout_ms is not None:
            # Unbudgeted policy: answer with whatever arrived by the safety
            # timeout (fail-silent ISNs never respond at all).
            sim.schedule_at(
                dispatch_ms + self.response_timeout_ms, self._finalize, pending
            )

    # ---------------------------------------------------------------- dispatch
    def _launch(
        self, pending: _PendingQuery, isn: ISNServer, role: str, at_ms: float | None
    ) -> Job:
        """Create a job on one replica and submit it (now, or at ``at_ms``)."""
        sid = isn.shard_id
        job = isn.make_job(
            pending.query,
            pending.decision.frequency_overrides.get(sid, self._default_freq),
            pending.deadline_ms,
            self._on_isn_done,
        )
        job.pending = pending
        job.role = role
        attempts = pending.attempts.get(sid)
        if attempts is None:
            pending.attempts[sid] = [job]
        else:
            attempts.append(job)
        sim = self.sim
        if at_ms is None:
            job.issued_ms = sim.now
            isn.submit(job, sim)
        else:
            job.issued_ms = at_ms
            sim.schedule_at(at_ms, isn.submit, job, sim)
        return job

    def _fire_hedge(self, pending: _PendingQuery, shard_id: int) -> None:
        """The hedge instant arrived: spend the backup iff still useful."""
        pending.hedges.remove(shard_id)
        if pending.finalized or shard_id not in pending.expected:
            return  # the primary answered in time — no replica spent
        self.hedges_issued += 1
        if self._tracer is not None:
            self._tracer.instant(
                "aggregator.hedge_issued", track=_TRACK,
                qid=pending.query.query_id, shard=shard_id, replica=1,
            )
            self._m_hedges.add()
        self._launch(pending, self.groups[shard_id][1], "hedge", None)

    # ---------------------------------------------------------------- results
    def _on_isn_done(self, job: Job, completed: bool, busy_ms: float) -> None:
        """An attempt reported back: finished, aborted or recalled."""
        job.done = True
        pending: _PendingQuery = job.pending
        partial_docs = job.result.cost.docs_evaluated
        if job.cancelled:
            partial_docs = 0
            self.cancelled_in_queue += 1
        elif not completed:
            service = job.cycles / (job.freq_ghz * 1e6)
            if service > 0:
                partial_docs = int(round(partial_docs * min(busy_ms / service, 1.0)))
        queued_ms = job.started_ms - job.issued_ms
        outcome = job.outcome = ShardOutcome(
            job.shard_id,
            busy_ms,
            queued_ms if queued_ms >= 0.0 else 0.0,
            job.freq_ghz,
            completed,
            False,
            partial_docs,
            job.replica_id,
            job.role,
            job.cancelled,
        )
        pending.outcomes.append(outcome)
        self.total_service_ms += busy_ms
        if completed:
            job.completed = True
            # Response travels back; count it on arrival.
            self.sim.schedule(self._net_ms, self._on_response, job)
        else:
            self._give_up_if_dead(pending, job.shard_id)

    def _give_up_if_dead(self, pending: _PendingQuery, shard_id: int) -> None:
        """Stop waiting for a shard once no attempt can answer any more.

        A fail-silent (fault-dropped) attempt never reports back, so its
        ``done`` flag stays False and the shard stays expected — exactly
        the pre-replication semantics: the aggregator only learns about a
        dead ISN through its deadline or response timeout (unless a hedge
        is still to come and routes around it).
        """
        if shard_id not in pending.expected or pending.finalized:
            return
        if shard_id in pending.hedges:
            return  # a backup may still be issued
        for attempt in pending.attempts[shard_id]:
            # ``completed``: another attempt finished in time and its
            # response is still on the wire (e.g. a hedge that beat a
            # primary aborting exactly at the deadline) — not dead, the
            # response decides this shard.  ``not done``: still running.
            if attempt.completed or not attempt.done:
                return
        pending.expected.discard(shard_id)
        if not pending.expected:
            self._finalize(pending)

    def _on_response(self, job: Job) -> None:
        pending: _PendingQuery = job.pending
        shard_id = job.shard_id
        if pending.finalized:
            # Straggler: dropped at the aggregator (paper step 7).
            if self._tracer is not None:
                self._tracer.instant(
                    "aggregator.straggler_dropped", track=_TRACK,
                    qid=pending.query.query_id, shard=shard_id,
                )
                self._m_stragglers.add()
            return
        if shard_id not in pending.expected:
            # The shard already answered through another replica (the
            # loser was in service when the recall arrived, or both hedge
            # and primary completed): exactly-once merge drops it.
            self.duplicates_dropped += 1
            if self._tracer is not None:
                self._tracer.instant(
                    "aggregator.duplicate_dropped", track=_TRACK,
                    qid=pending.query.query_id, shard=shard_id,
                    replica=job.replica_id,
                )
                self._m_duplicates.add()
            return
        pending.winners.append(job)
        if job.role == "hedge":
            self.hedge_wins += 1
            if self._tracer is not None:
                self._m_hedge_wins.add()
        # Recall the losers: the cancel message takes one network hop and
        # only reaches jobs still queued (cancel-after-finish is a no-op).
        # Issue order is deterministic, so same-instant cancel deliveries
        # tie-break identically across runs.
        for other in pending.attempts[shard_id]:
            if other is not job and not other.done:
                self.cancels_sent += 1
                if self._tracer is not None:
                    self._m_cancels.add()
                self.sim.schedule(self._net_ms, self._deliver_cancel, other)
        pending.expected.discard(shard_id)
        if not pending.expected:
            self._finalize(pending)

    def _deliver_cancel(self, job: Job) -> None:
        if job.done:
            return  # finished or aborted while the recall was in flight
        self.groups[job.shard_id][job.replica_id].cancel(job, self.sim)

    def _finalize(self, pending: _PendingQuery) -> None:
        if pending.finalized:
            return
        pending.finalized = True
        responses = []
        for job in pending.winners:
            outcome = job.outcome
            outcome.counted = True
            self.counted_service_ms += outcome.service_ms
            responses.append(job.result)
        # Nothing reads a final query's attempts or winners again; dropping
        # them breaks the query <-> job cycles, so reference counting frees
        # each job after its last event instead of the cyclic collector.
        pending.attempts.clear()
        pending.winners.clear()
        tracer = self._tracer
        if tracer is None:
            merged = self._merge(pending.query.terms, responses)
        else:
            with tracer.span(
                "aggregator.merge", track=_TRACK,
                qid=pending.query.query_id, responses=len(responses),
            ):
                merged = self._merge(pending.query.terms, responses)
        now = self.sim.now
        if self.cache is not None:
            self.cache.put(pending.query.terms, self.k, merged, now)
        if pending.span is not None:
            latency = now - pending.arrival_ms
            self._m_latency.observe(latency)
            budget = pending.decision.time_budget_ms
            if budget is not None:
                # How much of the broadcast budget (plus the return trip
                # the finalize event waits for) was left when the query
                # actually answered — 0 when the deadline itself fired.
                return_deadline = pending.dispatch_ms + budget + self._net_ms + 1e-6
                self._m_slack.observe(max(return_deadline - now, 0.0))
            pending.span.attrs["latency_ms"] = latency
            pending.span.attrs["counted"] = len(responses)
            pending.span.finish()
        # A copy: attempts still running (a loser in service) report
        # into ``pending.outcomes`` after the record is committed.
        self._commit(
            QueryRecord(
                pending.query, pending.arrival_ms, now - pending.arrival_ms,
                merged, pending.decision,
                sorted(pending.outcomes, key=_OUTCOME_ORDER),
            )
        )

    def _merge(self, terms: tuple[str, ...], responses: list[SearchResult]) -> SearchResult:
        """``merge_results`` over ``responses``, reused per term tuple.

        The merge is a pure function of the response set (hits rank by a
        total order, costs sum), so a query whose responses are the same
        objects as the last merge of its terms (each shard's memoized
        result) reuses it.  The entry holds the responses, so their ids
        stay theirs; it lives as long as this run's aggregator.
        """
        key = sorted(map(id, responses))
        last = self._merges.get(terms)
        if last is not None and last[0] == key:
            return last[2]
        merged = merge_results(responses, self.k)
        self._merges[terms] = (key, responses, merged)
        return merged

    def _commit(self, record: QueryRecord) -> None:
        if self._record_sink is None:
            self.records.append(record)
        else:
            self._record_sink(record)
        if not record.shed:
            if self.admission is not None:
                self.admission.on_finalize(record)
            # Shed queries never reached the policy; showing them to
            # adaptive policies would poison their latency feedback.
            self.policy.observe(record)
