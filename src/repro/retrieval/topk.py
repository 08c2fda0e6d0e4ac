"""Bounded top-K collection with a deterministic tie-break."""

from __future__ import annotations

import heapq


class TopKCollector:
    """Min-heap top-K collector.

    Ties on score are broken toward smaller document ids, so results are
    fully deterministic regardless of insertion order — essential for
    comparing evaluation strategies bit-for-bit in tests.

    The heap stores ``(score, -doc_id)``: the root is the entry that loses
    first (lowest score; among equals, the largest doc id).
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self._heap: list[tuple[float, int]] = []

    def offer(self, doc_id: int, score: float) -> bool:
        """Offer a candidate; return True if it entered the top-K."""
        entry = (score, -doc_id)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def threshold(self) -> float:
        """Current entry bar: a candidate must beat this score to matter.

        Returns -inf until the heap is full, so pruning strategies know
        nothing can be skipped yet.
        """
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def results(self) -> list[tuple[int, float]]:
        """Final hits as (doc_id, score), best first."""
        ordered = sorted(self._heap, reverse=True)
        return [(-neg_doc, score) for score, neg_doc in ordered]

    def __len__(self) -> int:
        return len(self._heap)
