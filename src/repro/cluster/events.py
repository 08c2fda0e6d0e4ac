"""Discrete-event simulation core.

A minimal but complete event loop: schedule callbacks at future simulated
times, run until drained.  All cluster timing (queueing, service, network,
budget expiry) is built on this.
Times are milliseconds throughout the cluster package — the natural unit of
web-search latencies.
"""

from __future__ import annotations

import gc
import heapq
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


class Simulator:
    """Event-driven clock.

    Events scheduled for the same instant fire in scheduling order (a
    monotonic sequence number breaks ties), which keeps runs fully
    deterministic.  A heap entry is ``(time, seq, fn, args)`` — callers
    pass the callback's arguments to :meth:`schedule` instead of closing
    over them, so the loop allocates no closure per event.

    ``telemetry`` (optional) receives the loop's own counters — most
    importantly the :meth:`schedule_at` past-time clamp (see below).
    """

    def __init__(self, telemetry: "Telemetry | None" = None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        self._events_processed = 0
        self._clamped_schedules = 0
        self._clamp_counter = (
            telemetry.metrics.counter("sim.schedule_at.clamped")
            if telemetry is not None and telemetry.enabled
            else None
        )

    def schedule(self, delay_ms: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay_ms`` simulated milliseconds from now."""
        if not delay_ms >= 0:  # also rejects NaN, which would corrupt heap order
            raise ValueError("cannot schedule into the past (or at NaN)")
        heapq.heappush(self._heap, (self.now + delay_ms, self._seq, fn, args))
        self._seq += 1

    def schedule_at(self, time_ms: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``time_ms``.

        **Clamp policy:** a ``time_ms`` already in the past runs *now*
        (at ``self.now``), after all previously scheduled same-instant
        events.  This is deliberate — callers schedule at computed
        absolute times (trace arrivals, dispatch instants, deadlines)
        and a sub-epsilon rounding below ``now`` must not crash the
        run — but it is never silent: each clamp increments
        :attr:`clamped_schedules` and, when the simulator was built
        with telemetry, the ``sim.schedule_at.clamped`` counter.  A
        clamp during a trace replay indicates a timing bug upstream
        (e.g. an unsorted trace), so tests and experiments can assert
        the counter stayed zero.  A NaN ``time_ms`` is an error, not a
        clamp.
        """
        delay = time_ms - self.now
        if not delay >= 0.0:
            if delay != delay:
                raise ValueError("cannot schedule at NaN")
            delay = 0.0
            self._clamped_schedules += 1
            if self._clamp_counter is not None:
                self._clamp_counter.add()
        # ``now + delay``, not ``time_ms``: the two can differ in the last
        # bit, and every recorded latency derives from these instants.
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def run(self, until_ms: float | None = None) -> None:
        """Drain the event queue (optionally stopping at ``until_ms``).

        The objects alive when the loop starts (shards, memos, models) sit
        out the cyclic collector until it returns (``gc.freeze``): young
        collections still free the loop's own garbage, but a full
        collection no longer re-traverses the whole testbed to find none.
        A caller's own freeze is left as it was.
        """
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        heap = self._heap
        pop = heapq.heappop
        processed = 0  # a local per event; the attribute is set once
        try:
            while heap:
                if until_ms is not None and heap[0][0] > until_ms:
                    self.now = until_ms
                    return
                self.now, _, fn, args = pop(heap)
                processed += 1
                fn(*args)
        finally:
            self._events_processed += processed
            if freeze:
                gc.unfreeze()

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def clamped_schedules(self) -> int:
        """How often :meth:`schedule_at` clamped a past time to now."""
        return self._clamped_schedules
