"""The aggregator: policy consultation, dispatch, merge, budget enforcement.

Implements the paper's Fig. 5 control flow.  For coordinated policies the
predict-and-report round (steps 1-5) is charged as the decision's
``coordination_delay_ms``; dispatch then fans the query out, each selected
ISN executes within the broadcast budget, and the aggregator merges
whatever arrived by the deadline, dropping stragglers (step 7).

With shard replicas (:mod:`repro.cluster.replicas`) each selected shard
becomes a *request* that may spawn several *attempts*:

* ``primary`` mode issues one attempt to the selector's first choice —
  the pre-replication behaviour, bit-identical to it at any replica
  count;
* ``hedged`` mode schedules a backup attempt at the budget-derived hedge
  instant (see :func:`repro.cluster.replicas.hedge_delay_ms`) and issues
  it only if the primary has not answered by then;
* ``tied`` mode races two attempts and recalls the loser the moment the
  first response arrives (a recall only reaches jobs still queued; an
  attempt already in service runs on and its late response is dropped as
  a duplicate).

Whatever the mode, exactly one response per shard is merged and exactly
one record per query is committed — the invariants
``tests/test_tied_requests.py`` stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.cache import ResultCache
from repro.cluster.events import Simulator
from repro.cluster.isn import ISNServer, Job
from repro.cluster.network import NetworkModel
from repro.cluster.replicas import (
    ReplicaSelector,
    ReplicationConfig,
    hedge_delay_ms,
    make_selector,
)
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

if TYPE_CHECKING:  # avoids a runtime cluster <-> serving import cycle
    from repro.serving.admission import AdmissionController

_TRACK = "aggregator"


@dataclass
class _Attempt:
    """One job issued to one replica for one (query, shard) request."""

    replica_id: int
    job: Job
    role: str  # "primary" | "hedge" | "tied"
    issued_ms: float
    done: bool = False  # the ISN reported back (finish, abort or recall)
    completed: bool = False  # finished in time; its response is travelling


@dataclass
class _ShardRequest:
    """Aggregator-side state for one selected shard of one query."""

    shard_id: int
    attempts: dict[int, _Attempt] = field(default_factory=dict)
    won: bool = False  # a response for this shard was accepted
    winner_replica: int = -1
    hedge_scheduled: bool = False
    backup_replica: int | None = None


@dataclass
class _PendingQuery:
    """Aggregator-side state for one in-flight query."""

    query: Query
    arrival_ms: float
    decision: Decision
    dispatch_ms: float
    deadline_ms: float | None
    expected: set[int]
    requests: dict[int, _ShardRequest] = field(default_factory=dict)
    responses: dict[int, SearchResult] = field(default_factory=dict)
    outcomes: dict[tuple[int, int], ShardOutcome] = field(default_factory=dict)
    finalized: bool = False
    span: object | None = None  # telemetry lifecycle span


class Aggregator:
    """Drives queries through the cluster under a selection policy."""

    def __init__(
        self,
        isns: list[ISNServer] | list[list[ISNServer]],
        policy: SelectionPolicy,
        network: NetworkModel,
        sim: Simulator,
        k: int,
        cache: ResultCache | None = None,
        response_timeout_ms: float | None = None,
        telemetry: Telemetry | None = None,
        replication: ReplicationConfig | None = None,
        selector: ReplicaSelector | None = None,
        admission: AdmissionController | None = None,
        record_sink: Callable[[QueryRecord], None] | None = None,
    ) -> None:
        """``isns`` is one entry per shard: either a bare :class:`ISNServer`
        (single replica, the pre-replication form) or that shard's replica
        group.  ``response_timeout_ms`` is the safety net for unbudgeted
        policies: with fail-silent ISNs in play, exhaustive-style "wait for
        everyone" would otherwise never answer.  ``selector`` overrides the
        replica selector built from ``replication`` (used to share one
        seeded selector across direct constructions).

        ``admission`` gates every cache-missing query before the policy
        runs (see :mod:`repro.serving.admission`): a rejected query is
        answered empty after the controller's fast-reject delay and
        committed with ``shed=True`` — and is *not* shown to the policy's
        ``observe``.  ``record_sink`` replaces the ``records`` list with a
        streaming consumer, so million-query open-loop campaigns retain
        no per-query state.  Both default to ``None``, which is
        bit-identical to the pre-serving-plane aggregator."""
        if not isns:
            raise ValueError("cluster needs at least one ISN")
        if response_timeout_ms is not None and response_timeout_ms <= 0:
            raise ValueError("response timeout must be positive")
        self.groups: list[list[ISNServer]] = [
            list(entry) if isinstance(entry, (list, tuple)) else [entry]
            for entry in isns
        ]
        self.replication = replication or ReplicationConfig()
        self.selector = selector or make_selector(self.replication)
        self.policy = policy
        self.network = network
        self.sim = sim
        self.k = k
        self.cache = cache
        self.response_timeout_ms = response_timeout_ms
        self.admission = admission
        self._record_sink = record_sink
        self.records: list[QueryRecord] = []
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
        self._m_selected = metrics.histogram("aggregator.selected_isns", lo=0.5, hi=1e4)

    @property
    def isns(self) -> list[ISNServer]:
        """Each shard's primary replica (the pre-replication view)."""
        return [group[0] for group in self.groups]

    # ---------------------------------------------------------------- intake
    def view(self) -> ClusterView:
        return ClusterView(
            now_ms=self.sim.now,
            n_shards=len(self.groups),
            default_freq_ghz=self._default_freq,
            max_freq_ghz=self._max_freq,
            queued_predicted_ms=tuple(
                self.selector.queue_view(group) for group in self.groups
            ),
        )

    def on_query(self, query: Query) -> None:
        """Entry point, fired by the engine at the query's arrival time."""
        arrival = self.sim.now
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
        if self.admission is not None:
            reason = self.admission.admit(query, self.view(), arrival)
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
            decision = self.policy.decide(query, self.view())
        else:
            # Policy-internal spans (predict, budget-assign) nest inside.
            with tracer.span("aggregator.decide", track=_TRACK, qid=query.query_id):
                decision = self.policy.decide(query, self.view())
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

        dispatch_delay = decision.coordination_delay_ms + self.network.delay_ms()
        dispatch_ms = arrival + dispatch_delay
        deadline = (
            dispatch_ms + decision.time_budget_ms
            if decision.time_budget_ms is not None
            else None
        )
        pending = _PendingQuery(
            query=query,
            arrival_ms=arrival,
            decision=decision,
            dispatch_ms=dispatch_ms,
            deadline_ms=deadline,
            expected=set(decision.shard_ids),
            span=qspan,
        )
        if qspan is not None:
            self._m_selected.observe(len(decision.shard_ids))
            if decision.time_budget_ms is not None:
                self._m_budget.observe(decision.time_budget_ms)

        mode = self.replication.mode
        for sid in decision.shard_ids:
            group = self.groups[sid]
            order = self.selector.order(sid, group, arrival)
            request = _ShardRequest(shard_id=sid)
            pending.requests[sid] = request
            primary = self._launch(
                pending, request, order[0], "primary", at_ms=dispatch_ms
            )
            if len(group) < 2:
                continue  # hedged/tied degrade to primary-only
            if mode == "tied":
                self._launch(pending, request, order[1], "tied", at_ms=dispatch_ms)
            elif mode == "hedged":
                request.backup_replica = order[1]
                request.hedge_scheduled = True
                backup_queue = group[order[1]].queued_work_default_ms
                predicted = decision.predicted_service_ms.get(
                    sid, primary.job.service_default_ms
                )
                delay = hedge_delay_ms(
                    decision.time_budget_ms,
                    predicted,
                    backup_queue,
                    self.network.delay_ms(),
                    self.replication,
                )
                self.sim.schedule_at(
                    dispatch_ms + delay,
                    lambda p=pending, s=sid: self._fire_hedge(p, s),
                )

        if deadline is not None:
            # Hard stop: merge whatever has arrived once responses from the
            # deadline could have travelled back.  The epsilon makes the
            # deadline inclusive: an ISN finishing exactly on the budget
            # would otherwise lose the same-timestamp tie against this
            # finalize event and be dropped.
            self.sim.schedule_at(
                deadline + self.network.delay_ms() + 1e-6,
                lambda p=pending: self._finalize(p),
            )
        elif self.response_timeout_ms is not None:
            # Unbudgeted policy: answer with whatever arrived by the safety
            # timeout (fail-silent ISNs never respond at all).
            self.sim.schedule_at(
                dispatch_ms + self.response_timeout_ms,
                lambda p=pending: self._finalize(p),
            )

    # ---------------------------------------------------------------- dispatch
    def _launch(
        self,
        pending: _PendingQuery,
        request: _ShardRequest,
        replica_id: int,
        role: str,
        at_ms: float | None,
    ) -> _Attempt:
        """Create a job on one replica and submit it (now, or at ``at_ms``)."""
        sid = request.shard_id
        isn = self.groups[sid][replica_id]
        freq = pending.decision.frequency_overrides.get(sid, self._default_freq)
        job = isn.make_job(
            pending.query,
            freq_ghz=freq,
            deadline_ms=pending.deadline_ms,
            on_done=lambda job, ok, busy, p=pending, s=sid, r=replica_id: (
                self._on_isn_done(p, s, r, job, ok, busy)
            ),
        )
        attempt = _Attempt(
            replica_id=replica_id,
            job=job,
            role=role,
            issued_ms=at_ms if at_ms is not None else self.sim.now,
        )
        request.attempts[replica_id] = attempt
        if at_ms is None:
            isn.submit(job, self.sim)
        else:
            self.sim.schedule_at(at_ms, lambda i=isn, j=job: i.submit(j, self.sim))
        return attempt

    def _fire_hedge(self, pending: _PendingQuery, shard_id: int) -> None:
        """The hedge instant arrived: spend the backup iff still useful."""
        request = pending.requests[shard_id]
        request.hedge_scheduled = False
        if pending.finalized or request.won:
            return  # the primary answered in time — no replica spent
        replica = request.backup_replica
        if replica is None or replica in request.attempts:
            return
        self.hedges_issued += 1
        if self._tracer is not None:
            self._tracer.instant(
                "aggregator.hedge_issued", track=_TRACK,
                qid=pending.query.query_id, shard=shard_id, replica=replica,
            )
            self._m_hedges.add()
        self._launch(pending, request, replica, "hedge", at_ms=None)

    # ---------------------------------------------------------------- results
    def _on_isn_done(
        self,
        pending: _PendingQuery,
        shard_id: int,
        replica_id: int,
        job: Job,
        completed: bool,
        busy_ms: float,
    ) -> None:
        request = pending.requests[shard_id]
        attempt = request.attempts[replica_id]
        attempt.done = True
        isn = self.groups[shard_id][replica_id]
        partial_docs = job.result.cost.docs_evaluated
        service = isn.cost_model.service_ms(job.result.cost, job.freq_ghz)
        if not completed and service > 0:
            partial_docs = int(round(partial_docs * min(busy_ms / service, 1.0)))
        if job.cancelled:
            partial_docs = 0
            self.cancelled_in_queue += 1
        pending.outcomes[(shard_id, replica_id)] = ShardOutcome(
            shard_id=shard_id,
            service_ms=busy_ms,
            queued_ms=max(job.started_ms - attempt.issued_ms, 0.0),
            freq_ghz=job.freq_ghz,
            completed=completed,
            counted=False,
            docs_evaluated=partial_docs,
            replica_id=replica_id,
            role=attempt.role,
            cancelled=job.cancelled,
        )
        self.total_service_ms += busy_ms
        if completed:
            attempt.completed = True
            # Response travels back; count it on arrival.
            self.sim.schedule(
                self.network.delay_ms(),
                lambda p=pending, s=shard_id, r=replica_id, res=job.result: (
                    self._on_response(p, s, r, res)
                ),
            )
        else:
            self._give_up_if_dead(pending, request)

    def _give_up_if_dead(self, pending: _PendingQuery, request: _ShardRequest) -> None:
        """Stop waiting for a shard once no attempt can answer any more.

        A fail-silent (fault-dropped) attempt never reports back, so its
        ``done`` flag stays False and the shard stays expected — exactly
        the pre-replication semantics: the aggregator only learns about a
        dead ISN through its deadline or response timeout (unless a hedge
        is still to come and routes around it).
        """
        if request.won or pending.finalized:
            return
        if request.hedge_scheduled:
            return  # a backup may still be issued
        if any(
            request.attempts[rid].completed for rid in sorted(request.attempts)
        ):
            # Another attempt finished in time and its response is still on
            # the wire (e.g. a hedge that beat a primary aborting exactly at
            # the deadline): not dead — the response decides this shard.
            return
        if all(
            request.attempts[rid].done for rid in sorted(request.attempts)
        ):
            pending.expected.discard(request.shard_id)
            self._maybe_finalize(pending)

    def _on_response(
        self,
        pending: _PendingQuery,
        shard_id: int,
        replica_id: int,
        result: SearchResult,
    ) -> None:
        if pending.finalized:
            # Straggler: dropped at the aggregator (paper step 7).
            if self._tracer is not None:
                self._tracer.instant(
                    "aggregator.straggler_dropped", track=_TRACK,
                    qid=pending.query.query_id, shard=shard_id,
                )
                self._m_stragglers.add()
            return
        request = pending.requests[shard_id]
        if request.won:
            # The shard already answered through another replica (the
            # tied loser was in service when the recall arrived, or both
            # hedge and primary completed): exactly-once merge drops it.
            self.duplicates_dropped += 1
            if self._tracer is not None:
                self._tracer.instant(
                    "aggregator.duplicate_dropped", track=_TRACK,
                    qid=pending.query.query_id, shard=shard_id,
                    replica=replica_id,
                )
                self._m_duplicates.add()
            return
        request.won = True
        request.winner_replica = replica_id
        if request.attempts[replica_id].role == "hedge":
            self.hedge_wins += 1
            if self._tracer is not None:
                self._m_hedge_wins.add()
        pending.responses[shard_id] = result
        # Recall the losers: the cancel message takes one network hop and
        # only reaches jobs still queued (cancel-after-finish is a no-op).
        # Sorted so same-instant cancel deliveries tie-break identically
        # across runs.
        for other in sorted(
            request.attempts.values(), key=lambda a: a.replica_id
        ):
            if other.replica_id != replica_id and not other.done:
                self.cancels_sent += 1
                if self._tracer is not None:
                    self._m_cancels.add()
                self.sim.schedule(
                    self.network.delay_ms(),
                    lambda s=shard_id, a=other: self._deliver_cancel(s, a),
                )
        pending.expected.discard(shard_id)
        self._maybe_finalize(pending)

    def _deliver_cancel(self, shard_id: int, attempt: _Attempt) -> None:
        if attempt.done:
            return  # finished or aborted while the recall was in flight
        isn = self.groups[shard_id][attempt.replica_id]
        isn.cancel(attempt.job, self.sim)

    def _maybe_finalize(self, pending: _PendingQuery) -> None:
        if not pending.finalized and not pending.expected:
            self._finalize(pending)

    def _finalize(self, pending: _PendingQuery) -> None:
        if pending.finalized:
            return
        pending.finalized = True
        for sid in pending.responses:
            request = pending.requests[sid]
            outcome = pending.outcomes.get((sid, request.winner_replica))
            if outcome is not None:
                outcome.counted = True
                self.counted_service_ms += outcome.service_ms
        tracer = self._tracer
        if tracer is None:
            merged = merge_results(list(pending.responses.values()), self.k)
        else:
            with tracer.span(
                "aggregator.merge", track=_TRACK,
                qid=pending.query.query_id, responses=len(pending.responses),
            ):
                merged = merge_results(list(pending.responses.values()), self.k)
        if self.cache is not None:
            self.cache.put(pending.query.terms, self.k, merged, self.sim.now)
        if pending.span is not None:
            latency = self.sim.now - pending.arrival_ms
            self._m_latency.observe(latency)
            budget = pending.decision.time_budget_ms
            if budget is not None:
                # How much of the broadcast budget (plus the return trip
                # the finalize event waits for) was left when the query
                # actually answered — 0 when the deadline itself fired.
                return_deadline = (
                    pending.dispatch_ms + budget + self.network.delay_ms() + 1e-6
                )
                self._m_slack.observe(max(return_deadline - self.sim.now, 0.0))
            pending.span.attrs["latency_ms"] = latency
            pending.span.attrs["counted"] = len(pending.responses)
            pending.span.finish()
        record = QueryRecord(
            query=pending.query,
            arrival_ms=pending.arrival_ms,
            latency_ms=self.sim.now - pending.arrival_ms,
            result=merged,
            decision=pending.decision,
            outcomes=sorted(
                pending.outcomes.values(),
                key=lambda o: (o.shard_id, o.replica_id),
            ),
        )
        self._commit(record)

    def _commit(self, record: QueryRecord) -> None:
        if self._record_sink is None:
            self.records.append(record)
        else:
            self._record_sink(record)
        if self.admission is not None and not record.shed:
            self.admission.on_finalize(record)
        if not record.shed:
            # Shed queries never reached the policy; showing them to
            # adaptive policies would poison their latency feedback.
            self.policy.observe(record)
