"""Shard fan-out: one loop.

``DistributedSearcher`` broadcasts a query by running one task per shard
through a ``SerialExecutor``: inline, in submission order, on the calling
thread.  Cottage's ISNs are separate machines and the cluster simulator
charges the ``max``-of-shards fan-out latency on the *simulated* clock;
host threads never touched a paper metric, and on the wall clock a thread
pool ran the same searches more than 2x slower than this loop
(``docs/bench/pr21.md``).

Determinism contract
--------------------
``map`` returns results in **submission order** and downstream merges
(`merge_results`) order hits by the total key ``(-score, doc_id)`` which
is unique per document.  Retrieval itself is a pure function of an
immutable shard, so the merged output does not depend on the order the
per-shard results were produced in — the property
``tests/test_executor.py`` pins down.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class SerialExecutor:
    """Run every task inline, in order, on the calling thread."""

    def map(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run ``tasks``, returning their results in submission order."""
        return [task() for task in tasks]
