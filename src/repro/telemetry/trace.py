"""Span-based tracing over simulated and wall time.

The tracer records *where* each millisecond of a query goes — the
observability the paper's whole argument needs.  Spans carry two clocks:

* **sim time** — the discrete-event clock of the cluster simulator
  (milliseconds), bound per run via :meth:`Tracer.bind_clock`.  This is
  the clock the Perfetto export plots: per-ISN service intervals, query
  lifecycles and coordination rounds land exactly where the simulation
  put them.
* **wall time** — ``time.perf_counter``, which measures how long the
  *host* spent producing each span (predictor inference, retrieval,
  merging).  This is the clock the flamegraph summary reports.

Three span kinds:

* **sync** spans (:meth:`Tracer.span`) follow call-stack discipline per
  track — they open and close in LIFO order, either as context managers
  or via manual ``finish()`` for intervals that cross event callbacks on
  a strictly sequential track (an ISN's single core).  Per track the
  begin/end event log is therefore balanced and monotonic by
  construction, which is what makes the Chrome B/E export valid.
* **async** spans (:meth:`Tracer.async_span`) may overlap freely — one
  per in-flight query lifecycle.  They export as Chrome nestable async
  events (``ph: b/e`` with an id) and never enter a track's sync stack.
* **instant** events (:meth:`Tracer.instant`) — zero-duration markers
  (queue aborts, fault drops).

Disabled mode
-------------
A disabled tracer never allocates: :meth:`span`, :meth:`async_span` and
:meth:`instant` all return the module-level :data:`NULL_SPAN` singleton
without touching their arguments.  Hot callers (the ISN service loop,
the aggregator intake) go one step further and keep a ``None`` tracer
reference so the disabled path is a single attribute test — the
telemetry overhead benchmark gates this at <2% of ``run_trace``.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Span", "Tracer", "NULL_SPAN", "NullSpan"]


class Span:
    """One traced interval on one track.

    ``sim_*`` are simulator milliseconds, ``wall_*`` host seconds.
    ``path`` is the tuple of enclosing sync span names (flamegraph key);
    ``depth`` its length.  ``attrs`` are free-form key/values attached at
    creation (shard id, query id, frequency, ...).
    """

    __slots__ = (
        "tracer", "name", "track", "kind", "attrs", "span_id",
        "sim_begin_ms", "sim_end_ms", "wall_begin_s", "wall_end_s",
        "path", "depth",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        track: str,
        kind: str,
        attrs: dict,
        span_id: int,
        sim_begin_ms: float,
        wall_begin_s: float,
        path: tuple[str, ...],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.track = track
        self.kind = kind
        self.attrs = attrs
        self.span_id = span_id
        self.sim_begin_ms = sim_begin_ms
        self.sim_end_ms: float | None = None
        self.wall_begin_s = wall_begin_s
        self.wall_end_s: float | None = None
        self.path = path
        self.depth = len(path) - 1

    # ------------------------------------------------------------- lifecycle
    def finish(self) -> None:
        """Close the span at the current sim/wall instant (idempotent)."""
        if self.sim_end_ms is None:
            self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    # ------------------------------------------------------------- accessors
    @property
    def finished(self) -> bool:
        return self.sim_end_ms is not None

    @property
    def sim_ms(self) -> float:
        """Simulated duration (0.0 while open or for instants)."""
        if self.sim_end_ms is None:
            return 0.0
        return self.sim_end_ms - self.sim_begin_ms

    @property
    def wall_ms(self) -> float:
        """Host wall-clock duration in milliseconds (0.0 while open)."""
        if self.wall_end_s is None:
            return 0.0
        return (self.wall_end_s - self.wall_begin_s) * 1000.0

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} track={self.track!r} "
            f"sim={self.sim_begin_ms:.3f}+{self.sim_ms:.3f}ms>"
        )


class NullSpan:
    """The do-nothing span every disabled-tracer call returns.

    A single shared instance (:data:`NULL_SPAN`): entering, exiting and
    finishing are no-ops, so ``with tracer.span(...)`` costs nothing but
    the call itself when telemetry is off.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def finish(self) -> None:
        return None

    @property
    def finished(self) -> bool:
        return True

    sim_ms = 0.0
    wall_ms = 0.0


NULL_SPAN = NullSpan()


class Tracer:
    """Collects spans across tracks; one instance per telemetry session.

    Tracks are created on first use and keep their creation order (the
    Chrome exporter assigns thread ids in that order, after pinning the
    aggregator first).  The per-track event log records begin/end marks
    in emission order, which — because sync spans follow stack
    discipline — is balanced and sim-time monotonic by construction.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._clock: Callable[[], float] = _zero_clock
        self._next_id = 0
        # Finished spans in finish order (sync + async + instant).
        self.spans: list[Span] = []
        # Per-track open-span stacks (sync discipline).
        self._stacks: dict[str, list[Span]] = {}
        # Per-track ("B"|"E"|"I", span) event logs, emission order.
        self._track_logs: dict[str, list[tuple[str, Span]]] = {}
        # Async lifecycle events: ("b"|"e", span) in emission order.
        self._async_log: list[tuple[str, Span]] = []

    # ------------------------------------------------------------------ clock
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the sim-time source (e.g. ``lambda: sim.now``)."""
        self._clock = clock

    def unbind_clock(self) -> None:
        self._clock = _zero_clock

    @property
    def now_ms(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------ spans
    def span(self, name: str, track: str = "main", **attrs: object):
        """Open a sync span on ``track`` (context manager or ``finish()``).

        Sync spans on one track must close in LIFO order — guaranteed by
        ``with`` blocks, and by construction for cross-event intervals on
        strictly sequential tracks (one ISN core runs one job at a time).
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stacks.get(track)
        if stack is None:
            stack = self._stacks[track] = []
            self._track_logs[track] = []
        parent_path = stack[-1].path if stack else ()
        span = Span(
            tracer=self,
            name=name,
            track=track,
            kind="sync",
            attrs=attrs,
            span_id=self._take_id(),
            sim_begin_ms=self._clock(),
            wall_begin_s=time.perf_counter(),
            path=parent_path + (name,),
        )
        stack.append(span)
        self._track_logs[track].append(("B", span))
        return span

    def async_span(self, name: str, track: str = "main", **attrs: object):
        """Open an async span — lifecycles that overlap on one track."""
        if not self.enabled:
            return NULL_SPAN
        self._ensure_track(track)
        span = Span(
            tracer=self,
            name=name,
            track=track,
            kind="async",
            attrs=attrs,
            span_id=self._take_id(),
            sim_begin_ms=self._clock(),
            wall_begin_s=time.perf_counter(),
            path=(name,),
        )
        self._async_log.append(("b", span))
        return span

    def instant(self, name: str, track: str = "main", **attrs: object):
        """Record a zero-duration marker on ``track``."""
        if not self.enabled:
            return NULL_SPAN
        self._ensure_track(track)
        now_sim = self._clock()
        now_wall = time.perf_counter()
        stack = self._stacks[track]
        parent_path = stack[-1].path if stack else ()
        span = Span(
            tracer=self,
            name=name,
            track=track,
            kind="instant",
            attrs=attrs,
            span_id=self._take_id(),
            sim_begin_ms=now_sim,
            wall_begin_s=now_wall,
            path=parent_path + (name,),
        )
        span.sim_end_ms = now_sim
        span.wall_end_s = now_wall
        self._track_logs[track].append(("I", span))
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.sim_end_ms = self._clock()
        span.wall_end_s = time.perf_counter()
        if span.kind == "sync":
            stack = self._stacks[span.track]
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:  # defensive: out-of-order finish
                stack.remove(span)
            self._track_logs[span.track].append(("E", span))
        elif span.kind == "async":
            self._async_log.append(("e", span))
        self.spans.append(span)

    # ------------------------------------------------------------------ state
    def _ensure_track(self, track: str) -> None:
        if track not in self._stacks:
            self._stacks[track] = []
            self._track_logs[track] = []

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def tracks(self) -> list[str]:
        """Track names in creation order."""
        return list(self._track_logs)

    def track_log(self, track: str) -> list[tuple[str, Span]]:
        return self._track_logs.get(track, [])

    @property
    def async_log(self) -> list[tuple[str, Span]]:
        return self._async_log

    def open_spans(self) -> list[Span]:
        """Sync spans still open (should be empty after a run)."""
        return [span for stack in self._stacks.values() for span in stack]

    def clear(self) -> None:
        """Drop all recorded spans (the session stays enabled/bound)."""
        self.spans.clear()
        self._stacks.clear()
        self._track_logs.clear()
        self._async_log.clear()
        self._next_id = 0


def _zero_clock() -> float:
    """Default sim clock before a run binds one: everything at t=0."""
    return 0.0
