"""The cross-strategy rank-equality predicate ``same_topk``.

``experiments/oracle_sweep.py`` holds only ``same_topk`` and its
tolerance ``SCORE_ATOL``: the repo benchmark's ``rank_equal_exhaustive``
check judges MaxScore against exhaustive evaluation with them, so the
contract is pinned here as a predicate.
"""

from __future__ import annotations

from repro.experiments.oracle_sweep import SCORE_ATOL, same_topk


class TestSameTopk:
    REFERENCE = [(4, 3.0), (7, 2.0), (9, 2.0), (1, 1.0)]

    def test_accepts_permutation_inside_a_score_tie(self):
        swapped = [(4, 3.0), (9, 2.0), (7, 2.0), (1, 1.0)]
        assert same_topk(self.REFERENCE, swapped)

    def test_accepts_drift_within_tolerance(self):
        drifted = [(doc, score + SCORE_ATOL / 2) for doc, score in self.REFERENCE]
        assert same_topk(self.REFERENCE, drifted)

    def test_rejects_length_mismatch(self):
        assert not same_topk(self.REFERENCE, self.REFERENCE[:-1])

    def test_rejects_score_drift_above_tolerance(self):
        drifted = [(4, 3.0 + 10 * SCORE_ATOL)] + self.REFERENCE[1:]
        assert not same_topk(self.REFERENCE, drifted)

    def test_rejects_swap_across_distinct_scores(self):
        # Scores line up position by position, but the documents holding
        # them traded places across a score boundary.
        swapped = [(7, 3.0), (4, 2.0), (9, 2.0), (1, 1.0)]
        assert not same_topk(self.REFERENCE, swapped)

    def test_rejects_a_document_listed_twice_inside_a_tie(self):
        # Each slot alone passes the tie rule; together they drop doc 9
        # (or doc 7) and report the other one twice.
        for twice in (7, 9):
            repeated = [(4, 3.0), (twice, 2.0), (twice, 2.0), (1, 1.0)]
            assert not same_topk(self.REFERENCE, repeated)
