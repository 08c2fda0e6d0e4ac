"""Shard replica groups: selection, and budget-aware hedged/tied dispatch.

The *Tail-Tolerant Distributed Search* playbook gives partition-aggregate
search three tools against stragglers, and this module configures all of
them for the simulated cluster:

* **replica selection** — which of a shard's R replicas serves a query
  (:class:`StaticSelector`, :class:`SeededSelector`,
  :class:`LeastLoadedSelector`);
* **hedged requests** — issue a backup to a second replica once the
  primary has been outstanding long enough that the latency predictor
  says it will miss the query's Cottage budget (see
  :func:`hedge_delay_ms`);
* **tied requests** — issue to two replicas up front and recall the
  loser the moment the first response arrives (exactly-once merge; a
  recalled replica that already started keeps running and its late
  response is dropped as a duplicate).

Determinism: selectors draw only from an explicitly seeded
``random.Random`` built from :attr:`ReplicationConfig.seed` (the repo's
seeded-RNG discipline), and a fresh selector is constructed per run by
:meth:`SearchCluster.run_trace`, so identical (seed, config) pairs replay
identical replica choices.

The degenerate configuration — one replica, ``primary`` mode — schedules
exactly the same simulator events as the pre-replication cluster, which
is what the bit-identity property suite in ``tests/test_replication.py``
pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.isn import ISNServer

DISPATCH_MODES = ("primary", "hedged", "tied")
SELECTORS = ("static", "seeded", "least_loaded")


@dataclass(frozen=True)
class ReplicationConfig:
    """How a run replicates shards and spends backups.

    Attributes
    ----------
    n_replicas:
        Independent ISN instances per shard (each with its own queue,
        CPU and energy meter).  1 reproduces the seed cluster.
    mode:
        ``primary`` sends each query to one replica; ``hedged`` adds a
        delayed backup when the primary looks likely to miss the budget;
        ``tied`` races two replicas and recalls the loser.  Modes needing
        a backup degrade to ``primary`` when only one replica exists.
    selector:
        Primary-choice policy: ``static`` always picks replica 0 (the
        bit-identity baseline), ``seeded`` draws uniformly from the
        run's seeded RNG, ``least_loaded`` picks the smallest pending
        work backlog (ties to the lowest replica id).
    seed:
        Seed for the ``seeded`` selector's ``random.Random``.  Fault
        timelines are seeded separately (see
        :meth:`FaultSchedule.random_flaky` and friends).
    hedge_floor_ms:
        Never hedge sooner than this after dispatch — an instant hedge
        is a tied request at double cost.
    hedge_fixed_ms:
        Hedge delay for unbudgeted policies (exhaustive, Taily), which
        give the planner no deadline to derive from.
    """

    n_replicas: int = 1
    mode: str = "primary"
    selector: str = "static"
    seed: int = 0
    hedge_floor_ms: float = 0.5
    hedge_fixed_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("need at least one replica per shard")
        if self.mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch mode {self.mode!r}; use one of {DISPATCH_MODES}"
            )
        if self.selector not in SELECTORS:
            raise ValueError(
                f"unknown selector {self.selector!r}; use one of {SELECTORS}"
            )
        if self.hedge_floor_ms < 0 or self.hedge_fixed_ms <= 0:
            raise ValueError("hedge delays must be positive")


class ReplicaSelector(Protocol):
    """Orders a shard's replicas for one query: primary first, backups after."""

    def order(
        self, shard_id: int, group: Sequence["ISNServer"], now_ms: float
    ) -> tuple[int, ...]:
        """Replica ids in dispatch preference order (primary first)."""
        ...

    def queue_view(self, group: Sequence["ISNServer"]) -> float:
        """The backlog (default-frequency ms) a policy should see for the
        shard — the queue term of Eq. 2 given where this selector would
        send the next query."""
        ...


class StaticSelector:
    """Always replica 0 — the seed cluster's (only) behaviour.

    With this selector, extra replicas are pure spares: a zero-fault
    primary-mode run is bit-identical to the single-replica cluster at
    any replica count (pinned in ``tests/test_replication.py``).
    """

    name = "static"

    def order(
        self, shard_id: int, group: Sequence["ISNServer"], now_ms: float
    ) -> tuple[int, ...]:
        return tuple(range(len(group)))

    def queue_view(self, group: Sequence["ISNServer"]) -> float:
        return group[0].queued_work_default_ms


class SeededSelector:
    """Uniform primary choice from a seeded RNG; backups follow in rotation.

    One RNG draw per (query, shard) — the draw count is a pure function
    of the trace and the policy's selections, so equal seeds replay
    equal choices.
    """

    name = "seeded"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def order(
        self, shard_id: int, group: Sequence["ISNServer"], now_ms: float
    ) -> tuple[int, ...]:
        n = len(group)
        if n == 1:
            return (0,)
        first = self.rng.randrange(n)
        return tuple((first + i) % n for i in range(n))

    def queue_view(self, group: Sequence["ISNServer"]) -> float:
        # Expected backlog under a uniform draw.  Reading (not drawing)
        # keeps the RNG sequence independent of how often policies peek.
        return sum(r.queued_work_default_ms for r in group) / len(group)


class LeastLoadedSelector:
    """Smallest pending-work backlog first; ties go to the lowest id."""

    name = "least_loaded"

    def order(
        self, shard_id: int, group: Sequence["ISNServer"], now_ms: float
    ) -> tuple[int, ...]:
        return tuple(
            sorted(range(len(group)), key=lambda r: (group[r].queued_work_default_ms, r))
        )

    def queue_view(self, group: Sequence["ISNServer"]) -> float:
        return min(r.queued_work_default_ms for r in group)


def make_selector(config: ReplicationConfig) -> ReplicaSelector:
    """Fresh selector for one run (the seeded RNG starts from the seed)."""
    if config.selector == "static":
        return StaticSelector()
    if config.selector == "seeded":
        return SeededSelector(random.Random(config.seed))
    if config.selector == "least_loaded":
        return LeastLoadedSelector()
    raise ValueError(f"unknown selector {config.selector!r}")


def hedge_delay_ms(
    budget_ms: float | None,
    predicted_service_ms: float,
    backup_queue_ms: float,
    network_delay_ms: float,
    config: ReplicationConfig,
) -> float:
    """How long after dispatch to wait before issuing the hedge.

    Budget-aware derivation: the backup's predicted completion needs
    ``backup_queue + predicted_service + network_delay`` ms, so the
    *latest* useful hedge instant is ``budget`` minus that — hedging
    later buys nothing (the backup would miss the deadline too), hedging
    earlier wastes a replica on primaries that were always going to make
    it.  At that instant the condition "the primary has not answered
    yet" is exactly "the latency predictor says the primary will miss
    the remaining Cottage budget", which is when *Tail-Tolerant
    Distributed Search* says to spend the replica.

    A primary predicted to be slower than the whole budget pushes the
    delay to the floor: hedge immediately, the backup is the only hope.
    Unbudgeted policies fall back to the fixed ``hedge_fixed_ms``.
    """
    if budget_ms is None:
        return config.hedge_fixed_ms
    backup_eta_ms = backup_queue_ms + predicted_service_ms + network_delay_ms
    return max(budget_ms - backup_eta_ms, config.hedge_floor_ms)
