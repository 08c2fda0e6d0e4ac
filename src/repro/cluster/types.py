"""Shared cluster datatypes: policy decisions, cluster views, query records.

These sit at the boundary between the simulator (:mod:`repro.cluster`) and
the selection policies (:mod:`repro.policies`, :mod:`repro.core`): the
aggregator hands a policy a :class:`ClusterView`, the policy returns a
:class:`Decision`, and each finished query yields a :class:`QueryRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.retrieval.query import Query
from repro.retrieval.result import SearchResult
from repro.telemetry import NO_TELEMETRY, Telemetry


@dataclass(frozen=True)
class ClusterView:
    """What a policy may observe when deciding (global aggregator view).

    ``queued_predicted_ms`` is each ISN's backlog of *predicted* service
    time at the default frequency — the queue term of the paper's
    equivalent latency (Eq. 2).  ``telemetry`` is the run's session, so a
    policy records its spans and counters into the run that asked for
    the decision; outside a run it is the disabled session.
    """

    now_ms: float
    n_shards: int
    default_freq_ghz: float
    max_freq_ghz: float
    queued_predicted_ms: tuple[float, ...]
    telemetry: Telemetry = field(default=NO_TELEMETRY, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.queued_predicted_ms) != self.n_shards:
            raise ValueError("queue vector length must equal n_shards")


@dataclass(frozen=True)
class Decision:
    """A policy's verdict for one query.

    Attributes
    ----------
    shard_ids:
        ISNs that will execute the query (order irrelevant).
    time_budget_ms:
        Deadline measured from dispatch; ``None`` waits for every selected
        ISN (exhaustive semantics).
    frequency_overrides:
        Per-shard core frequency for this query; shards absent run at the
        ISN's default frequency.
    coordination_delay_ms:
        Aggregator-side decision latency to charge before dispatch (e.g.
        Cottage's predict-and-report round, Rank-S's CSI search).
    predicted_service_ms:
        The policy's latency predictor's per-shard service-time estimate
        (default-frequency ms, queue excluded).  Optional; when present
        the aggregator's hedge planner derives the hedge delay from it
        instead of from the oracle service time (see
        :func:`repro.cluster.replicas.hedge_delay_ms`).
    """

    shard_ids: tuple[int, ...]
    time_budget_ms: float | None = None
    frequency_overrides: dict[int, float] = field(default_factory=dict)
    coordination_delay_ms: float = 0.0
    predicted_service_ms: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        selected = set(self.shard_ids)
        if len(selected) != len(self.shard_ids):
            raise ValueError("shard_ids must be unique")
        if self.time_budget_ms is not None and self.time_budget_ms <= 0:
            raise ValueError("time budget must be positive")
        if self.coordination_delay_ms < 0:
            raise ValueError("coordination delay must be non-negative")
        if not self.frequency_overrides.keys() <= selected:
            raise ValueError("frequency override for unselected shard")
        predicted = self.predicted_service_ms
        if predicted:
            if not predicted.keys() <= selected:
                raise ValueError("service prediction for unselected shard")
            if min(predicted.values()) < 0:
                raise ValueError("predicted service time must be non-negative")


@dataclass(slots=True)
class ShardOutcome:
    """What happened on one dispatch attempt (one ISN replica, one query).

    With replication a query may spawn two attempts per shard (primary
    + hedge); each gets its own outcome.  ``role`` records why the
    attempt was issued and ``cancelled`` marks a loser recalled while
    still queued (zero work spent).
    """

    shard_id: int
    service_ms: float = 0.0
    queued_ms: float = 0.0
    freq_ghz: float = 0.0
    completed: bool = False
    counted: bool = False  # response arrived in time and was merged
    docs_evaluated: int = 0
    replica_id: int = 0
    role: str = "primary"  # primary | hedge
    cancelled: bool = False


@dataclass
class QueryRecord:
    """Full per-query outcome from a simulated run.

    ``latency_ms`` is client-observed (arrival to aggregator response).
    ``result`` holds the merged hits actually returned; quality metrics are
    computed later against exhaustive ground truth.
    """

    query: Query
    arrival_ms: float
    latency_ms: float
    result: SearchResult
    decision: Decision
    outcomes: list[ShardOutcome] = field(default_factory=list)
    from_cache: bool = False
    #: Rejected by admission control before any ISN was touched (the
    #: serving plane's load shedding); the result is empty and the
    #: latency is the fast-reject reply time.
    shed: bool = False

    @property
    def n_selected(self) -> int:
        return len(self.decision.shard_ids)

    @property
    def n_counted(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.counted)

    @property
    def n_dropped_shards(self) -> int:
        """Selected shards that contributed nothing to the merged answer.

        The quality-loss accounting unit: every dropped shard removes its
        (potential) top-K contribution from the response.  With replicas,
        a shard counts as answered if *any* of its attempts was merged.
        """
        answered = {o.shard_id for o in self.outcomes if o.counted}
        return sum(1 for sid in self.decision.shard_ids if sid not in answered)

    @property
    def wasted_service_ms(self) -> float:
        """Busy time spent on attempts whose response was not merged —
        hedge-race losers, deadline aborts, post-finalize stragglers."""
        return sum(o.service_ms for o in self.outcomes if not o.counted)

    @property
    def docs_searched(self) -> int:
        """C_RES: documents evaluated across the ISNs used for this query."""
        return sum(outcome.docs_evaluated for outcome in self.outcomes)


@runtime_checkable
class SelectionPolicy(Protocol):
    """What the aggregator requires of a policy.

    ``decide`` picks ISNs/budget/frequencies for one query; ``observe`` is
    called with each finished record (adaptive policies such as the
    epoch-based aggregation baseline learn their budget from it);
    ``prewarm`` gives the policy the whole trace up front so pure,
    memoized per-query work (e.g. predictor inference) can run batched.
    Both ``decide`` (through ``view.telemetry``) and ``prewarm`` receive
    the run's telemetry session; a policy keeps none of it.
    """

    name: str

    def decide(self, query: Query, view: ClusterView) -> Decision:
        ...

    def observe(self, record: QueryRecord) -> None:
        ...

    def prewarm(self, queries: list[Query], telemetry: Telemetry = NO_TELEMETRY) -> None:
        ...
