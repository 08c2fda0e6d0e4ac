"""Policy base class."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cluster.types import ClusterView, Decision, QueryRecord
from repro.retrieval.query import Query
from repro.telemetry import NO_TELEMETRY, Telemetry


class BasePolicy(ABC):
    """Common scaffolding for ISN-selection policies.

    Subclasses implement :meth:`decide`; :meth:`observe` is an optional
    feedback hook (the epoch-based aggregation baseline uses it to learn
    its budget from completed queries).

    A policy holds no telemetry: the run's session arrives with each call
    (``view.telemetry`` in :meth:`decide`, the ``telemetry`` argument of
    :meth:`prewarm`) and is the disabled session outside a run.
    """

    name: str = "base"

    @abstractmethod
    def decide(self, query: Query, view: ClusterView) -> Decision:
        """Choose ISNs, time budget and frequencies for one query."""

    def observe(self, record: QueryRecord) -> None:
        """Feedback after a query completes.  Default: ignore."""

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> None:
        """Precompute anything the policy will need for ``queries``.

        Called by :meth:`SearchCluster.run_trace` before the event loop
        starts, with the whole trace.  Policies whose per-query work is
        pure and memoized (Cottage's predictor inference) batch it here;
        the decisions themselves are unchanged — only where the wall-clock
        CPU time is spent moves.  Default: do nothing.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
