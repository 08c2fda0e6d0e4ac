"""DAAT cursors over a term's doc-id column.

A term's postings live in its shard's arena, doc ids strictly increasing.
The cursor API (``doc()``, ``next()``, ``next_geq()``) is the contract the
document-at-a-time evaluators in :mod:`repro.retrieval` are written against;
``next_geq`` uses galloping search so MaxScore skipping is sub-linear.
"""

from __future__ import annotations

import numpy as np

# Sentinel document id signalling an exhausted cursor; larger than any real id.
END_OF_LIST: int = 2**62


class PostingCursor:
    """Forward-only cursor over one term's doc-id column.

    A fresh cursor is positioned on the first posting (or at end for an
    empty list).  ``scores`` and ``upper_bound`` are attached by the
    evaluator before traversal begins.
    """

    __slots__ = ("_doc_ids", "_pos", "_size", "scores", "upper_bound")

    def __init__(self, doc_ids: np.ndarray) -> None:
        self._doc_ids = doc_ids
        self._size = int(doc_ids.size)
        self._pos = 0
        self.scores: np.ndarray | None = None
        self.upper_bound: float = 0.0

    def doc(self) -> int:
        """Current document id, or END_OF_LIST when exhausted."""
        if self._pos >= self._size:
            return END_OF_LIST
        return int(self._doc_ids[self._pos])

    def score(self) -> float:
        """Score of the current posting (requires ``scores`` attached)."""
        assert self.scores is not None, "scores not attached to cursor"
        return float(self.scores[self._pos])

    def next(self) -> int:
        """Advance one posting; return the new current doc id."""
        self._pos += 1
        return self.doc()

    def next_geq(self, target: int) -> int:
        """Advance to the first posting with doc id >= ``target``.

        Galloping (exponential) search from the current position followed by
        a bisect keeps total skipping cost O(log gap), which is what gives
        MaxScore its edge over exhaustive traversal.
        """
        if self._pos >= self._size:
            return END_OF_LIST
        if int(self._doc_ids[self._pos]) >= target:
            return int(self._doc_ids[self._pos])
        # Gallop: find a bracket [lo, hi) with doc_ids[lo] < target and
        # either doc_ids[hi] >= target or hi == size.  Clamping the exit
        # bracket to the array tail keeps the invariant airtight: the
        # bisect below always lands on the answer (or one past the end),
        # so no fallback over the whole array is ever needed.
        lo = self._pos
        step = 1
        hi = lo + step
        while hi < self._size and int(self._doc_ids[hi]) < target:
            lo = hi
            step <<= 1
            hi = lo + step
        if hi > self._size:
            hi = self._size
        self._pos = lo + int(np.searchsorted(self._doc_ids[lo:hi], target, side="left"))
        return self.doc()

    def exhausted(self) -> bool:
        return self._pos >= self._size

    @property
    def position(self) -> int:
        """Index of the current posting (== list length when exhausted)."""
        return min(self._pos, self._size)

    def remaining(self) -> int:
        return max(self._size - self._pos, 0)
