"""The simulated Index Serving Node.

A single-core FIFO server: queries queue, run at a per-query core frequency,
and abort at their deadline (the ISN knows the budget the aggregator
broadcast, paper Fig. 5 step 5-6).  The ISN also maintains the running sum
of its queued work — the queue term of the paper's equivalent latency
(Eq. 2) that Cottage's latency prediction reports upstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.cpu import CostModel, FrequencyScale
from repro.cluster.events import Simulator
from repro.cluster.faults import FaultSchedule
from repro.cluster.governor import AssignedFrequencyGovernor, FrequencyGovernor
from repro.cluster.power import EnergyMeter
from repro.cluster.sleep import SleepPolicy
from repro.retrieval.query import Query
from repro.retrieval.result import SearchResult
from repro.retrieval.searcher import ShardSearcher
from repro.telemetry import NO_TELEMETRY, Telemetry


@dataclass
class Job:
    """One query's execution on one ISN."""

    query: Query
    result: SearchResult
    freq_ghz: float
    deadline_ms: float | None
    service_default_ms: float
    on_done: Callable[["Job", bool, float], None]
    started_ms: float = 0.0
    boosted: bool = False
    aborted_in_queue: bool = field(default=False, init=False)
    cancelled: bool = field(default=False, init=False)  # tied/hedged recall
    span: object | None = field(default=None, init=False)  # telemetry service span


class ISNServer:
    """Single-worker FIFO query server over one shard replica.

    ``replica_id`` distinguishes the R independent instances a replicated
    cluster runs per shard (each with its own queue, CPU and meter);
    single-replica clusters leave it at 0.
    """

    def __init__(
        self,
        shard_id: int,
        searcher: ShardSearcher,
        cost_model: CostModel,
        freq_scale: FrequencyScale,
        meter: EnergyMeter,
        governor: FrequencyGovernor | None = None,
        faults: FaultSchedule | None = None,
        sleep: SleepPolicy | None = None,
        telemetry: Telemetry | None = None,
        replica_id: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.searcher = searcher
        self.cost_model = cost_model
        self.freq_scale = freq_scale
        self.meter = meter
        self.governor = governor or AssignedFrequencyGovernor()
        self.faults = faults
        self.sleep = sleep
        # Telemetry: the tracer reference is None when disabled so every
        # hot-path check is a single attribute test (zero allocation).
        telemetry = telemetry or NO_TELEMETRY
        self._tracer = telemetry.tracer if telemetry.enabled else None
        # Replica 0 keeps the pre-replication track name so existing
        # trace tooling (and exported Perfetto baselines) line up.
        self._track = (
            f"isn.{shard_id}" if replica_id == 0 else f"isn.{shard_id}.r{replica_id}"
        )
        self._metrics = telemetry.metrics
        self._m_queue_depth = self._metrics.histogram("isn.queue_depth", lo=0.5, hi=1e4)
        self._m_queued_work = self._metrics.histogram("isn.queued_work_ms")
        self._queue: deque[Job] = deque()
        self._busy = False
        self._last_activity_end_ms = 0.0
        self.queued_work_default_ms = 0.0  # remaining work, default-frequency ms
        self.jobs_processed = 0
        self.jobs_aborted = 0
        self.jobs_cancelled = 0
        self.jobs_lost_to_faults = 0
        self.wakeups = 0

    # ------------------------------------------------------------- submission
    def make_job(
        self,
        query: Query,
        freq_ghz: float,
        deadline_ms: float | None,
        on_done: Callable[[Job, bool, float], None],
    ) -> Job:
        """Run retrieval (timing-free, memoized) and wrap it as a job."""
        freq_ghz = self.freq_scale.clamp(freq_ghz)
        result = self.searcher.search(query)
        service_default = self.cost_model.service_ms(
            result.cost, self.freq_scale.default_ghz
        )
        return Job(
            query=query,
            result=result,
            freq_ghz=freq_ghz,
            deadline_ms=deadline_ms,
            service_default_ms=service_default,
            on_done=on_done,
            boosted=freq_ghz > self.freq_scale.default_ghz + 1e-12,
        )

    def submit(self, job: Job, sim: Simulator) -> None:
        if self.faults is not None and self.faults.is_down(
            self.shard_id, sim.now, self.replica_id
        ):
            # Fail-silent: the request vanishes; the aggregator learns only
            # through its deadline or response timeout.
            self.jobs_lost_to_faults += 1
            if self._tracer is not None:
                self._tracer.instant(
                    "isn.fault_drop", track=self._track,
                    qid=job.query.query_id, shard=self.shard_id,
                )
                self._metrics.counter("isn.jobs_lost_to_faults").add()
            return
        self.queued_work_default_ms += job.service_default_ms
        self._queue.append(job)
        if self._tracer is not None:
            # Depth includes the in-service job: the backlog a new arrival
            # actually waits behind.
            self._m_queue_depth.observe(len(self._queue) + (1 if self._busy else 0))
            self._m_queued_work.observe(self.queued_work_default_ms)
        if not self._busy:
            self._start_next(sim)

    def cancel(self, job: Job, sim: Simulator) -> bool:
        """Recall a queued job (a tied/hedged request that lost the race).

        Only jobs still waiting can be recalled — an in-service job keeps
        running (the core is already committed; its late response is the
        caller's to drop) and a finished one is gone.  Returns whether
        the job was still queued.  A successful recall releases the job's
        pending-work contribution and reports ``on_done(job, False, 0.0)``
        with ``job.cancelled`` set, so the aggregator's attempt
        accounting sees exactly one completion per attempt.
        """
        try:
            self._queue.remove(job)
        except ValueError:
            return False
        job.cancelled = True
        self.jobs_cancelled += 1
        if self._tracer is not None:
            self._tracer.instant(
                "isn.cancelled_in_queue", track=self._track,
                qid=job.query.query_id, shard=self.shard_id,
                replica=self.replica_id,
            )
            self._metrics.counter("isn.cancelled_in_queue").add()
        self._release_work(job)
        job.on_done(job, False, 0.0)
        return True

    # ------------------------------------------------------------- execution
    def _start_next(self, sim: Simulator) -> None:
        while self._queue:
            job = self._queue.popleft()
            if job.deadline_ms is not None and sim.now >= job.deadline_ms:
                # Expired while waiting: discard without doing any work.
                job.aborted_in_queue = True
                self.jobs_aborted += 1
                if self._tracer is not None:
                    self._tracer.instant(
                        "isn.abort_in_queue", track=self._track,
                        qid=job.query.query_id, shard=self.shard_id,
                    )
                    self._metrics.counter("isn.aborted_in_queue").add()
                self._release_work(job)
                job.on_done(job, False, 0.0)
                continue
            self._busy = True
            # If the core napped through the preceding idle gap, credit
            # the nap energy and pay the wake latency before service.
            wake_ms = 0.0
            if self.sleep is not None:
                # gap == 0 for back-to-back jobs; only a real idle stretch
                # can have napped.
                gap = max(sim.now - self._last_activity_end_ms, 0.0)
                nap = self.sleep.nap_ms_in_gap(gap)
                if nap > 0:
                    self.meter.add_nap(nap, self.sleep.nap_power_w)
                    wake_ms = self.sleep.wake_penalty_ms(gap)
                    self.wakeups += 1
            job.started_ms = sim.now
            # The governor has the final say on the core frequency, given
            # how much of the budget queueing already consumed.
            remaining = (
                job.deadline_ms - sim.now if job.deadline_ms is not None else None
            )
            job.freq_ghz = self.governor.frequency_for(
                job.result.cost, job.freq_ghz, remaining,
                self.cost_model, self.freq_scale,
            )
            job.boosted = job.freq_ghz > self.freq_scale.default_ghz + 1e-12
            service_ms = self.cost_model.service_ms(job.result.cost, job.freq_ghz)
            if self.faults is not None:
                # Straggler injection: the replica silently serves this
                # job slower (GC pause, noisy neighbour).  The factor is
                # sampled once at service start — the ISN's own backlog
                # estimate (queued_work_default_ms) deliberately stays
                # unaware, because the upstream latency predictor would
                # not know either.
                service_ms *= self.faults.slowdown_factor(
                    self.shard_id, sim.now, self.replica_id
                )
            service = wake_ms + service_ms
            if job.deadline_ms is not None and sim.now + service > job.deadline_ms:
                # Will miss the budget: work until the deadline, then abort.
                busy = job.deadline_ms - sim.now
                self.meter.add_busy(busy, job.freq_ghz, boosted=job.boosted)
                sim.schedule(busy, lambda j=job, b=busy: self._finish(j, False, b, sim))
            else:
                busy = service
                self.meter.add_busy(service, job.freq_ghz, boosted=job.boosted)
                sim.schedule(
                    service, lambda j=job, s=service: self._finish(j, True, s, sim)
                )
            if self._tracer is not None:
                # The service span opens when the core starts the job and
                # closes in _finish — an interval with real sim duration
                # on this ISN's (strictly sequential) track.
                job.span = self._tracer.span(
                    "isn.service", track=self._track,
                    qid=job.query.query_id, shard=self.shard_id,
                    freq_ghz=job.freq_ghz, boosted=job.boosted,
                )
                self._metrics.counter(
                    f"isn.freq_residency_ms.{job.freq_ghz:.1f}ghz"
                ).add(busy)
                if wake_ms > 0:
                    self._metrics.counter("isn.wakeups").add()
            return
        self._busy = False

    def finalize_sleep(self, now_ms: float) -> None:
        """Credit the trailing idle gap at end of run.

        Without this, an ISN a policy never touched would earn no nap
        savings despite sleeping the whole trace.
        """
        if self.sleep is None or self._busy or self._queue:
            return
        gap = max(now_ms - self._last_activity_end_ms, 0.0)
        nap = self.sleep.nap_ms_in_gap(gap)
        if nap > 0:
            self.meter.add_nap(nap, self.sleep.nap_power_w)
        self._last_activity_end_ms = now_ms

    def _finish(self, job: Job, completed: bool, busy_ms: float, sim: Simulator) -> None:
        self._busy = False
        self._last_activity_end_ms = sim.now
        if completed:
            self.jobs_processed += 1
        else:
            self.jobs_aborted += 1
        if job.span is not None:
            job.span.attrs["completed"] = completed
            job.span.finish()
            self._metrics.histogram("isn.service_ms").observe(busy_ms)
            if not completed:
                self._metrics.counter("isn.aborted_at_deadline").add()
        self._release_work(job)
        job.on_done(job, completed, busy_ms)
        self._start_next(sim)

    def _release_work(self, job: Job) -> None:
        """Drop the job's contribution to the pending-work estimate.

        Work is released at completion (not at dispatch) so that
        ``queued_work_default_ms`` includes the in-service job — the view
        Eq. 2's equivalent latency needs.
        """
        self.queued_work_default_ms = max(
            self.queued_work_default_ms - job.service_default_ms, 0.0
        )

    # ------------------------------------------------------------- accounting
    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._queue)
