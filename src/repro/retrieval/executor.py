"""Shard fan-out execution strategies.

Every layer that touches more than one shard — ``DistributedSearcher``
broadcast, trace prewarming in the cluster engine, the benchmarks — runs
its per-shard work through a ``ShardExecutor``.  Two strategies are
provided:

* ``SerialExecutor`` — runs tasks in submission order on the calling
  thread.  The reference behaviour every other executor must reproduce
  bit for bit.
* ``ParallelExecutor`` — fans tasks out over a ``ThreadPoolExecutor``
  with a configurable worker count.

Determinism contract
--------------------
``map`` returns results in **submission order**, never completion order,
and downstream merges (`merge_results`) order hits by the total key
``(-score, doc_id)`` which is unique per document.  Retrieval itself is a
pure function of an immutable shard.  Together these make the merged
output of any executor bit-identical to ``SerialExecutor`` regardless of
worker count, scheduling, or completion order — the property
``tests/test_executor.py`` pins down.

Timing
------
Executors record per-task durations of their last ``map`` in a
``FanoutStats``.  Besides wall clock, the stats expose the *critical
path*: the makespan of the measured tasks under the executor's worker
count (FIFO list scheduling, the same order the pool serves).  On a
host with free cores wall clock tracks the critical path; on a saturated
or single-core host (CI containers) wall clock cannot improve, so the
critical path is the honest figure of merit — it is exactly the
``max`` -of-shards fan-out latency the cluster simulator's latency model
charges, versus the ``sum`` a serial scan pays.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent import futures as _futures
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.retrieval.query import Query
    from repro.retrieval.searcher import ShardSearcher
    from repro.telemetry import Telemetry
    from repro.telemetry.trace import Tracer

T = TypeVar("T")


@dataclass
class FanoutStats:
    """Timing of one fan-out: wall clock plus per-task durations."""

    task_ms: list[float] = field(default_factory=list)
    wall_ms: float = 0.0
    workers: int = 1

    @property
    def n_tasks(self) -> int:
        return len(self.task_ms)

    @property
    def serial_ms(self) -> float:
        """Total work: what a serial scan of the same tasks would pay."""
        return sum(self.task_ms)

    def makespan_ms(self, workers: int | None = None) -> float:
        """Critical path under FIFO list scheduling on ``workers`` lanes.

        Tasks are assigned in submission order to the earliest-free
        worker — the schedule a thread pool's FIFO queue produces — so
        this is the fan-out completion time the worker count buys,
        independent of how many cores the host happens to have free.
        """
        if workers is None:
            workers = self.workers
        if workers < 1:
            raise ValueError("workers must be positive")
        if not self.task_ms:
            return 0.0
        lanes = [0.0] * min(workers, len(self.task_ms))
        heapq.heapify(lanes)
        for duration in self.task_ms:
            heapq.heappush(lanes, heapq.heappop(lanes) + duration)
        return max(lanes)

    @property
    def critical_path_ms(self) -> float:
        return self.makespan_ms()

    @property
    def modeled_speedup(self) -> float:
        """Serial time over critical path: the fan-out speedup."""
        critical = self.critical_path_ms
        return self.serial_ms / critical if critical > 0 else 1.0


class ShardExecutor:
    """How per-shard tasks of one logical operation are executed.

    Subclasses implement :meth:`map`; everything else (context manager,
    stats bookkeeping) is shared.  ``last_stats`` always describes the
    most recent ``map`` call.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.last_stats: FanoutStats | None = None
        # Telemetry tracer, bound per run; None means disabled and costs
        # exactly one attribute test per map call.
        self._tracer: "Tracer | None" = None

    def bind_telemetry(self, telemetry: "Telemetry") -> None:
        """Attach a run's telemetry session to subsequent ``map`` calls."""
        self._tracer = telemetry.tracer if telemetry.enabled else None

    @property
    def workers(self) -> int:
        return 1

    def map(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run ``tasks``, returning their results in submission order."""
        tracer = self._tracer
        if tracer is None:
            return self._run(tasks)
        with tracer.span(
            "executor.map", track="executor",
            strategy=self.name, n_tasks=len(tasks), workers=self.workers,
        ) as span:
            results = self._run(tasks)
            if self.last_stats is not None:
                span.attrs["wall_ms"] = self.last_stats.wall_ms
            return results

    def _run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Strategy-specific execution; ``map`` wraps it with telemetry."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(ShardExecutor):
    """Run every task inline, in order, on the calling thread."""

    name = "serial"

    def _run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        stats = FanoutStats(workers=1)
        start = time.perf_counter()
        results: list[T] = []
        for task in tasks:
            t0 = time.perf_counter()
            results.append(task())
            stats.task_ms.append((time.perf_counter() - t0) * 1000.0)
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        self.last_stats = stats
        return results


class ParallelExecutor(ShardExecutor):
    """Thread-pool fan-out with a configurable worker count.

    The pool is created lazily on first use and shared across ``map``
    calls; ``close`` (or use as a context manager) shuts it down.
    Results come back in submission order, so callers observe exactly
    the serial interface with only the schedule changed.
    """

    name = "parallel"

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be positive")
        self._workers = workers
        self._pool: _futures.ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> _futures.ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _futures.ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="shard-exec",
                )
            return self._pool

    def _run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        pool = self._ensure_pool()
        stats = FanoutStats(workers=self._workers)
        durations = [0.0] * len(tasks)

        def timed(index: int, task: Callable[[], T]) -> T:
            t0 = time.perf_counter()
            try:
                return task()
            finally:
                # Each task owns exactly one preallocated slot, so the
                # pool threads' writes are disjoint by construction.
                durations[index] = (time.perf_counter() - t0) * 1000.0  # simlint: disable=PAR-SHARED -- index-disjoint slot writes

        start = time.perf_counter()
        pending = [pool.submit(timed, i, task) for i, task in enumerate(tasks)]
        # Gather in submission order; completion order is irrelevant.
        results = [future.result() for future in pending]
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        stats.task_ms = durations
        self.last_stats = stats
        return results

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def plan_prewarm(
    searchers: Sequence["ShardSearcher"],
    queries: Iterable["Query"],
) -> list[Callable[[], object]]:
    """Deduplicated retrieval closures covering ``queries`` on ``searchers``.

    One task per unique (searcher, cache key) not already cached.  The
    tasks only touch the searchers' memo caches through ``search``, so
    running them through any executor leaves behavior unchanged — replay
    afterwards is pure cache hits.
    """
    seen: set[tuple[int, object]] = set()
    tasks: list[Callable[[], object]] = []
    for query in queries:
        for searcher in searchers:
            key = (id(searcher), searcher.cache_key(query))
            if key in seen or searcher.is_cached(query):
                continue
            seen.add(key)
            tasks.append(lambda s=searcher, q=query: s.search(q))
    return tasks


def prewarm_searchers(
    searchers: Sequence["ShardSearcher"],
    queries: Iterable["Query"],
    executor: ShardExecutor,
) -> int:
    """Run the prewarm plan on an existing executor; return the task count."""
    tasks = plan_prewarm(searchers, queries)
    executor.map(tasks)
    return len(tasks)


def make_executor(workers: int | None) -> ShardExecutor:
    """Executor for a worker count: serial for ``None``/1, threads above."""
    if workers is None or workers == 1:
        return SerialExecutor()
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return ParallelExecutor(workers)
