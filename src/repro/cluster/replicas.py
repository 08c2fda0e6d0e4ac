"""Shard replica groups: when to spend a budget-aware hedge.

The *Tail-Tolerant Distributed Search* playbook answers a straggling
partition with a **hedged request**: issue a backup to a second replica
once the primary has been outstanding long enough that the latency
predictor says it will miss the query's Cottage budget.  With R >= 2
replicas per shard, replica 0 serves every query and replica 1 takes the
hedge; :func:`hedge_delay_ms` decides when.  With R = 1 there is no
backup, and the run is bit-identical to the pre-replication cluster.
"""

from __future__ import annotations

HEDGE_FLOOR_MS = 0.5
"""Never hedge sooner than this after dispatch: an instant hedge is a
duplicate request at double cost."""

HEDGE_FIXED_MS = 25.0
"""Hedge delay for unbudgeted policies (exhaustive, Taily), which give
the planner no deadline to derive from."""


def hedge_delay_ms(
    budget_ms: float | None,
    predicted_service_ms: float,
    backup_queue_ms: float,
    network_delay_ms: float,
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
    Unbudgeted policies fall back to the fixed :data:`HEDGE_FIXED_MS`.
    """
    if budget_ms is None:
        return HEDGE_FIXED_MS
    backup_eta_ms = backup_queue_ms + predicted_service_ms + network_delay_ms
    return max(budget_ms - backup_eta_ms, HEDGE_FLOOR_MS)
