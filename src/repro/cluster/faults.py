"""Fault injection: ISN outages and slow-replica stragglers.

Real clusters lose serving nodes *and* grow stragglers; partition-aggregate
search degrades gracefully only if the aggregator stops waiting for the
dead and routes around the slow.  A :class:`FaultSchedule` carries two
fault kinds for one simulated run:

* :class:`Outage` — a replica (or a whole shard's replica group) accepts
  jobs but never responds over ``[start_ms, end_ms)`` (the fail-silent
  model — crashes and network partitions look identical to the
  aggregator);
* :class:`Slowdown` — a replica's service times are multiplied by
  ``factor`` over an interval (GC pauses, noisy neighbours, thermal
  throttling — the *Tail-Tolerant Distributed Search* straggler model).

Three mechanisms bound the damage:

* per-query time budgets (Cottage, aggregation policy) — a dead ISN is
  just a straggler and is dropped at the deadline;
* the aggregator's ``response_timeout_ms`` safety net — without it, an
  unbudgeted policy (exhaustive, Taily, Rank-S) would wait forever;
* shard replicas with hedged/tied dispatch (:mod:`repro.cluster.replicas`)
  — a slow or dead replica is routed around instead of dropped.

Addressing: every fault names a ``shard_id`` and optionally a
``replica_id``.  ``replica_id=None`` (the default, and the only option in
the pre-replication schedule format) hits every replica of the shard;
an integer hits exactly that replica.

Randomized timelines (flaky shards, jittered stragglers) are generated by
the ``random_*`` constructors, which require an explicitly seeded
``random.Random`` — the repo's DET-RNG discipline: identical seeds give
identical fault timelines, so scenario-matrix cells are comparable.

``tests/test_faults.py`` and ``tests/test_scenario_matrix.py`` exercise
all of this; the ``beyond.ext_fault_injection`` claim measures an outage
against Cottage's budgets.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Outage:
    """One replica (or whole shard) down for [start_ms, end_ms)."""

    shard_id: int
    start_ms: float
    end_ms: float
    replica_id: int | None = None  # None = every replica of the shard

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.replica_id is not None and self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if not 0.0 <= self.start_ms < self.end_ms:
            raise ValueError("need 0 <= start < end")

    def covers(self, time_ms: float) -> bool:
        return self.start_ms <= time_ms < self.end_ms


@dataclass(frozen=True)
class Slowdown:
    """One replica's service times scaled by ``factor`` over an interval."""

    shard_id: int
    start_ms: float
    end_ms: float
    factor: float
    replica_id: int | None = None  # None = every replica of the shard

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.replica_id is not None and self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if not 0.0 <= self.start_ms < self.end_ms:
            raise ValueError("need 0 <= start < end")
        if self.factor <= 0.0:
            raise ValueError("slowdown factor must be positive")

    def covers(self, time_ms: float) -> bool:
        return self.start_ms <= time_ms < self.end_ms


def _index_intervals(intervals):
    """Group intervals by (shard, replica) key, sorted and overlap-checked."""
    by_key: dict[tuple[int, int | None], list] = {}
    for interval in intervals:
        by_key.setdefault(
            (interval.shard_id, interval.replica_id), []
        ).append(interval)
    for key, entries in sorted(by_key.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])):
        entries.sort(key=lambda o: o.start_ms)
        for a, b in zip(entries, entries[1:]):
            if b.start_ms < a.end_ms:
                raise ValueError(
                    f"overlapping intervals on shard {a.shard_id} "
                    f"replica {a.replica_id}"
                )
    return by_key


def _active(entries, time_ms: float):
    """The interval covering ``time_ms`` in a sorted list, or None."""
    if not entries:
        return None
    idx = bisect_right([o.start_ms for o in entries], time_ms) - 1
    if idx >= 0 and entries[idx].covers(time_ms):
        return entries[idx]
    return None


@dataclass
class FaultSchedule:
    """All outages and slowdowns for one simulated run."""

    outages: list[Outage] = field(default_factory=list)
    slowdowns: list[Slowdown] = field(default_factory=list)
    _down_by_key: dict = field(default_factory=dict, init=False, repr=False)
    _slow_by_key: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self._down_by_key = _index_intervals(self.outages)
        self._slow_by_key = _index_intervals(self.slowdowns)

    # ------------------------------------------------------------------ query
    def is_down(self, shard_id: int, time_ms: float, replica_id: int = 0) -> bool:
        """Whether the replica is failed at ``time_ms``.

        The default ``replica_id=0`` preserves the pre-replication call
        sites: a single-replica cluster's only replica is replica 0, and
        whole-shard outages (``replica_id=None``) cover it.
        """
        for key in ((shard_id, None), (shard_id, replica_id)):
            if _active(self._down_by_key.get(key), time_ms) is not None:
                return True
        return False

    def slowdown_factor(
        self, shard_id: int, time_ms: float, replica_id: int = 0
    ) -> float:
        """Service-time multiplier for the replica at ``time_ms``.

        Whole-shard and per-replica slowdowns compose multiplicatively (a
        rack-wide throttle on top of a replica-local GC pause); 1.0 when
        nothing is active.
        """
        factor = 1.0
        for key in ((shard_id, None), (shard_id, replica_id)):
            active = _active(self._slow_by_key.get(key), time_ms)
            if active is not None:
                factor *= active.factor
        return factor

    def downtime_ms(self, shard_id: int, replica_id: int | None = None) -> float:
        """Total scheduled downtime for a shard (or one of its replicas)."""
        return sum(
            o.end_ms - o.start_ms
            for o in self.outages
            if o.shard_id == shard_id
            and (replica_id is None or o.replica_id in (None, replica_id))
        )

    # ------------------------------------------------------------- construction
    @classmethod
    def single(cls, shard_id: int, start_ms: float, end_ms: float) -> "FaultSchedule":
        return cls(outages=[Outage(shard_id, start_ms, end_ms)])

    @classmethod
    def straggler(
        cls,
        shard_id: int,
        start_ms: float,
        end_ms: float,
        factor: float,
        replica_id: int | None = None,
    ) -> "FaultSchedule":
        """One slow replica (or shard) over an interval."""
        return cls(
            slowdowns=[Slowdown(shard_id, start_ms, end_ms, factor, replica_id)]
        )

    @classmethod
    def random_flaky(
        cls,
        shard_id: int,
        horizon_ms: float,
        rng: random.Random,
        mean_up_ms: float = 200.0,
        mean_down_ms: float = 60.0,
        replica_id: int | None = None,
    ) -> "FaultSchedule":
        """A shard that flaps: alternating up/down intervals with
        exponentially jittered durations drawn from ``rng``.

        ``rng`` must be an explicitly seeded ``random.Random`` — the
        schedule is then a pure function of (seed, parameters), so two
        scenario-matrix cells built from equal seeds replay the same
        timeline.
        """
        if mean_up_ms <= 0 or mean_down_ms <= 0:
            raise ValueError("mean interval lengths must be positive")
        outages: list[Outage] = []
        t = rng.expovariate(1.0 / mean_up_ms)
        while t < horizon_ms:
            down = max(rng.expovariate(1.0 / mean_down_ms), 1e-3)
            outages.append(
                Outage(shard_id, t, min(t + down, horizon_ms), replica_id)
            )
            t += down + max(rng.expovariate(1.0 / mean_up_ms), 1e-3)
        return cls(outages=outages)

    @classmethod
    def random_stragglers(
        cls,
        n_shards: int,
        horizon_ms: float,
        rng: random.Random,
        n_events: int = 4,
        factor_lo: float = 3.0,
        factor_hi: float = 12.0,
        mean_len_ms: float = 150.0,
        n_replicas: int = 1,
    ) -> "FaultSchedule":
        """Scattered slow-replica episodes across the cluster.

        Each event picks a (shard, replica) uniformly from ``rng``, a
        service-time factor in ``[factor_lo, factor_hi]`` and an
        exponentially jittered duration.  Events on the same replica are
        pushed apart rather than overlapped, keeping the schedule valid
        for any draw.
        """
        if n_events < 0:
            raise ValueError("n_events must be non-negative")
        cursors: dict[tuple[int, int], float] = {}
        slowdowns: list[Slowdown] = []
        for _ in range(n_events):
            shard = rng.randrange(n_shards)
            replica = rng.randrange(n_replicas)
            start = rng.uniform(0.0, max(horizon_ms - mean_len_ms, 1.0))
            start = max(start, cursors.get((shard, replica), 0.0))
            length = max(rng.expovariate(1.0 / mean_len_ms), 1.0)
            end = start + length  # running past the horizon is harmless
            factor = rng.uniform(factor_lo, factor_hi)
            slowdowns.append(Slowdown(shard, start, end, factor, replica))
            cursors[(shard, replica)] = end
        return cls(slowdowns=slowdowns)

    @classmethod
    def correlated_outage(
        cls,
        shard_ids: list[int],
        start_ms: float,
        end_ms: float,
        replica_id: int | None = None,
    ) -> "FaultSchedule":
        """Several shards (one rack) down over the same window."""
        return cls(
            outages=[Outage(sid, start_ms, end_ms, replica_id) for sid in shard_ids]
        )
