"""Admission control for the serving plane: shed before you collapse.

Open-loop load does not slow down when the cluster saturates — the
arrival process keeps offering queries, the ISN queues grow without
bound, and every query's latency diverges.  The admission controller
sits at the aggregator's front door (after the result cache, before the
policy) and rejects queries that cannot be served acceptably, keeping
the in-flight population — and therefore simulator memory and served
latency — bounded.

Two shedding criteria, both optional:

* **queue depth** — reject when the in-flight query population or the
  worst ISN backlog exceeds a cap (classic head-of-line protection);
* **deadline** — reject when the predicted completion time (worst ISN
  backlog + an EWMA of observed service times) would bust the SLO; the
  estimate adapts as the run progresses.

The :class:`DeadlineQueue` tracks every admitted query's SLO deadline in
a lazy min-heap; its depth is the in-flight population the queue-depth
criterion gates on, and its expired count surfaces how many admitted
queries nevertheless outlived their SLO.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.cluster.types import ClusterView, QueryRecord
from repro.retrieval.query import Query


@dataclass(frozen=True)
class AdmissionConfig:
    """Thresholds for the admission controller (``None`` disables a rule).

    ``reject_ms`` is the fast-reject reply latency a shed query observes
    (one aggregator bounce, no ISN work).  ``service_estimate_ms`` seeds
    the deadline rule's service-time estimate before any query finishes;
    ``ewma_alpha`` is the update weight for observed services.
    """

    max_in_flight: int | None = None
    max_queued_ms: float | None = None
    deadline_slo_ms: float | None = None
    reject_ms: float = 0.05
    service_estimate_ms: float = 5.0
    ewma_alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        if self.max_queued_ms is not None and self.max_queued_ms <= 0:
            raise ValueError("max_queued_ms must be positive")
        if self.deadline_slo_ms is not None and not (
            math.isfinite(self.deadline_slo_ms) and self.deadline_slo_ms > 0
        ):
            raise ValueError("deadline_slo_ms must be positive and finite")
        if self.reject_ms < 0:
            raise ValueError("reject_ms must be non-negative")
        if self.service_estimate_ms <= 0:
            raise ValueError("service_estimate_ms must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")

    def enabled_rules(self) -> tuple[str, ...]:
        rules = []
        if self.max_in_flight is not None or self.max_queued_ms is not None:
            rules.append("queue_depth")
        if self.deadline_slo_ms is not None:
            rules.append("deadline")
        return tuple(rules)


class DeadlineQueue:
    """Min-heap of per-query SLO deadlines with lazy removal.

    ``push`` registers an admitted query; ``finalize`` retires it (heap
    entries are discarded lazily on the next prune, so both are O(log n)
    amortized).  ``expire`` counts — without removing — admitted queries
    whose deadline has passed, the "admitted but missed SLO" signal.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._live: set[int] = set()
        self.expired = 0

    def push(self, query_id: int, deadline_ms: float) -> None:
        self._live.add(query_id)
        heapq.heappush(self._heap, (deadline_ms, query_id))

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._live

    def finalize(self, query_id: int, now_ms: float) -> None:
        if query_id not in self._live:
            return  # cache hits / shed queries were never pushed
        self._live.discard(query_id)
        self._prune()

    def _prune(self) -> None:
        heap = self._heap
        while heap and heap[0][1] not in self._live:
            deadline, _ = heapq.heappop(heap)

    @property
    def depth(self) -> int:
        """In-flight admitted queries (push'd, not yet finalized)."""
        return len(self._live)

    def earliest_deadline_ms(self) -> float | None:
        self._prune()
        return self._heap[0][0] if self._heap else None

    def count_expired(self, now_ms: float) -> int:
        """Live queries already past their deadline (SLO misses in flight)."""
        self._prune()
        return sum(
            1
            for deadline, qid in self._heap
            if qid in self._live and deadline < now_ms
        )


class AdmissionController:
    """Stateful gate the aggregator consults for every cache-missing query.

    ``admit`` returns ``None`` to accept or a shed reason
    (``"queue_depth"`` / ``"deadline"``); the aggregator answers shed
    queries empty after ``config.reject_ms`` and never shows them to the
    policy.  ``on_admit``/``on_finalize`` bracket each accepted query so
    the controller tracks the in-flight population and adapts its
    service-time estimate from finished queries.
    """

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self.deadlines = DeadlineQueue()
        self.admitted = 0
        self.shed = 0
        self._service_ewma_ms = self.config.service_estimate_ms

    @property
    def reject_ms(self) -> float:
        return self.config.reject_ms

    @property
    def in_flight(self) -> int:
        return self.deadlines.depth

    @property
    def service_estimate_ms(self) -> float:
        return self._service_ewma_ms

    def admit(self, query: Query, view: ClusterView, now_ms: float) -> str | None:
        """``None`` to accept; otherwise the shed reason."""
        cfg = self.config
        if cfg.max_in_flight is not None and self.in_flight >= cfg.max_in_flight:
            self.shed += 1
            return "queue_depth"
        worst_backlog = max(view.queued_predicted_ms, default=0.0)
        if cfg.max_queued_ms is not None and worst_backlog > cfg.max_queued_ms:
            self.shed += 1
            return "queue_depth"
        if cfg.deadline_slo_ms is not None:
            eta_ms = worst_backlog + self._service_ewma_ms
            if eta_ms > cfg.deadline_slo_ms:
                self.shed += 1
                return "deadline"
        return None

    def on_admit(self, query_id: int, now_ms: float) -> None:
        self.admitted += 1
        slo = self.config.deadline_slo_ms
        deadline = now_ms + slo if slo is not None else math.inf
        self.deadlines.push(query_id, deadline)

    def on_finalize(self, record: QueryRecord) -> None:
        finish_ms = record.arrival_ms + record.latency_ms
        slo = self.config.deadline_slo_ms
        if (
            slo is not None
            and record.query.query_id in self.deadlines
            and record.latency_ms > slo
        ):
            self.deadlines.expired += 1
        self.deadlines.finalize(record.query.query_id, finish_ms)
        # Adapt the service estimate from the critical-path ISN service of
        # merged responses (queueing excluded — feeding latency back in
        # would double-count the very backlog the rule subtracts).
        counted = [o.service_ms for o in record.outcomes if o.counted]
        if counted:
            alpha = self.config.ewma_alpha
            self._service_ewma_ms += alpha * (max(counted) - self._service_ewma_ms)
