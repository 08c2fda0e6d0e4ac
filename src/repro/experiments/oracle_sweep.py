"""The cross-strategy rank-equality contract, as a predicate.

``same_topk`` judges whether a challenger's top-k equals a reference's
up to float-summation drift; the repo benchmark's
``rank_equal_exhaustive`` check applies it to MaxScore against
exhaustive evaluation.  Strict *bit*-identity holds within one strategy,
not across strategies, whose differing accumulation order moves
last-ulp score bits.
"""

from __future__ import annotations

#: Score tolerance of the cross-strategy equivalence check — the same
#: bound ``tests/test_strategy_equivalence.py`` uses for summation-order
#: float drift.
SCORE_ATOL = 1e-9


def same_topk(
    reference: list[tuple[int, float]], challenger: list[tuple[int, float]]
) -> bool:
    """The cross-strategy equivalence contract, as a predicate.

    Same documents in the same order with scores equal up to
    float-summation drift (``SCORE_ATOL``); documents may permute only
    within a score tie, and no document may appear twice.  Mirrors
    ``assert_same_topk`` in ``tests/test_strategy_equivalence.py``.
    """
    if len(reference) != len(challenger):
        return False
    if len({doc for doc, _ in challenger}) != len(challenger):
        return False
    for (doc_c, score_c), (doc_r, score_r) in zip(challenger, reference):
        if abs(score_c - score_r) > SCORE_ATOL:
            return False
        if doc_c != doc_r:
            tied = {
                doc
                for doc, score in reference
                if abs(score - score_r) <= SCORE_ATOL
            }
            if doc_c not in tied:
                return False
    return True
