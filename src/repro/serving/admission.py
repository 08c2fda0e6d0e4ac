"""Admission control for the serving plane: shed before you collapse.

Open-loop load does not slow down when the cluster saturates — the
arrival process keeps offering queries, the ISN queues grow without
bound, and every query's latency diverges.  The admission controller
sits at the aggregator's front door (after the result cache, before the
policy) and rejects queries that cannot be served acceptably, keeping
the in-flight population — and therefore simulator memory and served
latency — bounded.

Two shedding rules, both optional:

* **queue depth** — reject when the in-flight query population reaches
  a cap (classic head-of-line protection);
* **deadline** — reject when the predicted completion time (worst ISN
  backlog + an EWMA of observed service times) would bust the SLO; the
  estimate adapts as the run progresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.types import ClusterView, QueryRecord
from repro.retrieval.query import Query

#: The fast-reject reply latency a shed query observes (one aggregator
#: bounce, no ISN work).
REJECT_MS = 0.05
#: The deadline rule's service-time estimate before any query finishes.
SERVICE_ESTIMATE_MS = 5.0
#: The update weight of each finished query's service in the estimate.
EWMA_ALPHA = 0.05


@dataclass(frozen=True)
class AdmissionConfig:
    """Thresholds for the admission controller (``None`` disables a rule)."""

    max_in_flight: int | None = None
    deadline_slo_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        if self.deadline_slo_ms is not None and not (
            math.isfinite(self.deadline_slo_ms) and self.deadline_slo_ms > 0
        ):
            raise ValueError("deadline_slo_ms must be positive and finite")


class AdmissionController:
    """Stateful gate the aggregator consults for every cache-missing query.

    ``admit`` returns ``None`` to accept or a shed reason
    (``"queue_depth"`` / ``"deadline"``); the aggregator answers shed
    queries empty after ``reject_ms`` and never shows them to the
    policy.  ``on_admit``/``on_finalize`` bracket each accepted query so
    the controller tracks the in-flight population and adapts its
    service-time estimate from finished queries.
    """

    reject_ms = REJECT_MS

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self._in_flight: set[int] = set()
        self._service_ewma_ms = SERVICE_ESTIMATE_MS
        #: Deadline sheds whose service estimate alone busts the SLO: the
        #: rule would have refused them on an idle cluster.
        self.shed_at_any_load = 0

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    @property
    def service_estimate_ms(self) -> float:
        return self._service_ewma_ms

    def admit(self, query: Query, view: ClusterView, now_ms: float) -> str | None:
        """``None`` to accept; otherwise the shed reason."""
        cfg = self.config
        if cfg.max_in_flight is not None and self.in_flight >= cfg.max_in_flight:
            return "queue_depth"
        if cfg.deadline_slo_ms is not None:
            worst_backlog = max(view.queued_predicted_ms, default=0.0)
            if worst_backlog + self._service_ewma_ms > cfg.deadline_slo_ms:
                if self._service_ewma_ms > cfg.deadline_slo_ms:
                    self.shed_at_any_load += 1
                return "deadline"
        return None

    def on_admit(self, query_id: int, now_ms: float) -> None:
        self._in_flight.add(query_id)

    def on_finalize(self, record: QueryRecord) -> None:
        # Cache hits were never admitted: discarding them is a no-op.
        self._in_flight.discard(record.query.query_id)
        # Adapt the service estimate from the critical-path ISN service of
        # merged responses (queueing excluded — feeding latency back in
        # would double-count the very backlog the rule subtracts).
        counted = [o.service_ms for o in record.outcomes if o.counted]
        if counted:
            self._service_ewma_ms += EWMA_ALPHA * (max(counted) - self._service_ewma_ms)
