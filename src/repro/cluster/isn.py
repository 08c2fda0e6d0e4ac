"""The simulated Index Serving Node.

A single-core FIFO server: queries queue, run at a per-query core frequency,
and abort at their deadline (the ISN knows the budget the aggregator
broadcast, paper Fig. 5 step 5-6).  The ISN also maintains the running sum
of its queued work — the queue term of the paper's equivalent latency
(Eq. 2) that Cottage's latency prediction reports upstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.cpu import CostModel, FrequencyScale
from repro.cluster.events import Simulator
from repro.cluster.faults import FaultSchedule
from repro.cluster.power import EnergyMeter
from repro.retrieval.query import Query
from repro.retrieval.result import SearchResult
from repro.retrieval.searcher import ShardSearcher, kernel_counters
from repro.telemetry import NO_TELEMETRY, Telemetry


@dataclass(slots=True, eq=False, repr=False)
class Job:
    """One attempt: one query's execution on one ISN replica.

    The single per-attempt record of the run — the ISN's queue entry and
    the aggregator's attempt bookkeeping in one slotted object.  The ISN
    fills the execution side (``cycles`` is the retrieval work priced
    once; every service time is ``cycles / (f * 1e6)``); whoever issues
    the job owns ``pending``/``role``/``issued_ms`` and reads
    ``done``/``completed`` back.  Identity, not field equality, is what
    ``ISNServer.cancel`` looks a job up by.
    """

    query: Query
    result: SearchResult
    freq_ghz: float
    deadline_ms: float | None
    cycles: float
    service_default_ms: float
    on_done: Callable[["Job", bool, float], None]
    shard_id: int
    replica_id: int
    boosted: bool
    started_ms: float = 0.0
    aborted_in_queue: bool = False
    cancelled: bool = False  # recalled after the other attempt won
    span: Any = None  # telemetry service span
    # Issuer-side state (the aggregator's view of this attempt).
    pending: Any = None  # the in-flight query this attempt serves
    role: str = "primary"  # "primary" | "hedge"
    issued_ms: float = 0.0
    done: bool = False  # the ISN reported back (finish, abort or recall)
    completed: bool = False  # finished in time; its response is travelling
    outcome: Any = None  # the ShardOutcome reported for this attempt


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
        faults: FaultSchedule | None = None,
        telemetry: Telemetry | None = None,
        replica_id: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.searcher = searcher
        self.cost_model = cost_model
        self.freq_scale = freq_scale
        self.meter = meter
        default_ghz = freq_scale.default_ghz
        self._default_hz = default_ghz * 1e6
        self._boost_above_ghz = default_ghz + 1e-12
        # The two frequencies a policy assigns in practice, pre-snapped.
        self._snapped = {
            ghz: freq_scale.clamp(ghz) for ghz in (default_ghz, freq_scale.max_ghz)
        }
        self.faults = faults
        # Telemetry: the tracer reference is None when disabled so every
        # hot-path check is a single attribute test (zero allocation).
        telemetry = telemetry or NO_TELEMETRY
        self._telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry.enabled else None
        if telemetry.enabled:
            # Listed in every traced run, at zero when each search hits the memo.
            kernel_counters(telemetry)
        # Replica 0 keeps the pre-replication track name so existing
        # trace tooling (and exported Perfetto baselines) line up.
        self._track = (
            f"isn.{shard_id}" if replica_id == 0 else f"isn.{shard_id}.r{replica_id}"
        )
        self._metrics = telemetry.metrics
        self._m_queue_depth = self._metrics.histogram("isn.queue_depth")
        self._m_queued_work = self._metrics.histogram("isn.queued_work_ms")
        self._queue: deque[Job] = deque()
        self._busy = False
        self.queued_work_default_ms = 0.0  # remaining work, default-frequency ms
        self.jobs_processed = 0
        self.jobs_aborted = 0
        self.jobs_cancelled = 0
        self.jobs_lost_to_faults = 0

    # ------------------------------------------------------------- submission
    def make_job(
        self,
        query: Query,
        freq_ghz: float,
        deadline_ms: float | None,
        on_done: Callable[[Job, bool, float], None],
    ) -> Job:
        """Run retrieval (timing-free, memoized) and wrap it as a job."""
        freq_ghz = self._snapped.get(freq_ghz) or self.freq_scale.clamp(freq_ghz)
        result = self.searcher.search(query, self._telemetry)
        cycles = self.cost_model.cycles(result.cost)
        return Job(
            query, result, freq_ghz, deadline_ms, cycles,
            cycles / self._default_hz, on_done, self.shard_id, self.replica_id,
            freq_ghz > self._boost_above_ghz,
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
        """Recall a queued job (a hedge-race attempt that lost).

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
        queue = self._queue
        while queue:
            job = queue.popleft()
            now = sim.now
            deadline = job.deadline_ms
            if deadline is not None and now >= deadline:
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
            job.started_ms = now
            freq_ghz = job.freq_ghz
            busy = job.cycles / (freq_ghz * 1e6)
            if self.faults is not None:
                # Straggler injection: the replica silently serves this
                # job slower (GC pause, noisy neighbour).  The factor is
                # sampled once at service start — the ISN's own backlog
                # estimate (queued_work_default_ms) deliberately stays
                # unaware, because the upstream latency predictor would
                # not know either.
                busy *= self.faults.slowdown_factor(
                    self.shard_id, now, self.replica_id
                )
            completed = True
            if deadline is not None and now + busy > deadline:
                # Will miss the budget: work until the deadline, then abort.
                busy = deadline - now
                completed = False
            self.meter.add_busy(busy, freq_ghz)
            sim.schedule(busy, self._finish, job, completed, busy, sim)
            if self._tracer is not None:
                # The service span opens when the core starts the job and
                # closes in _finish — an interval with real sim duration
                # on this ISN's (strictly sequential) track.
                job.span = self._tracer.span(
                    "isn.service", track=self._track,
                    qid=job.query.query_id, shard=self.shard_id,
                    freq_ghz=freq_ghz, boosted=job.boosted,
                )
                self._metrics.counter(
                    f"isn.freq_residency_ms.{freq_ghz:.1f}ghz"
                ).add(busy)
            return
        self._busy = False

    def _finish(self, job: Job, completed: bool, busy_ms: float, sim: Simulator) -> None:
        self._busy = False
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
        left = self.queued_work_default_ms - job.service_default_ms
        self.queued_work_default_ms = left if left >= 0.0 else 0.0

    # ------------------------------------------------------------- accounting
    @property
    def queue_length(self) -> int:
        return len(self._queue)
