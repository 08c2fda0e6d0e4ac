"""Algorithm 1 — per-query time budget determination.

The heart of the paper: given every ISN's <Q^K, Q^{K/2}, L_current,
L_boosted> prediction tuple, pick the smallest time budget that keeps every
ISN still contributing to the most important top-K/2 results, cutting
zero-quality ISNs entirely and marking slow-but-valuable ISNs for frequency
boosting.

Stage 1 (paper lines 3-11): drop every ISN with Q^K = 0.
Stage 2 (lines 12-21): sort survivors by boosted latency, descending, and
walk from the slowest: the first ISN with Q^{K/2} != 0 sets the budget;
every slower ISN ahead of it (all with Q^{K/2} = 0) is sacrificed.
Stage 1 (:func:`cut_zero_quality`) reads only the predictions; stage 2
(:func:`assign_budget`) adds the live queues, so a caller that sees one
query many times runs stage 1 once per query.

Note: the paper's pseudocode keeps assigning ``T`` without a break, which
would end at the *fastest* K/2-contributor; the prose and the Fig. 9 worked
example ("we choose the ISN-1's boosted latency of 16 milliseconds ...
Because ISN-1 contributes one document to the most important top-K/2
results, we have to keep ISN-1 and cannot reduce the time budget further")
make clear the walk stops at the first K/2-contributor.  This
implementation follows the prose/example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence


class _PredictionTuple(NamedTuple):
    shard_id: int
    quality_k: int
    quality_half_k: int
    latency_current_ms: float
    latency_boosted_ms: float


class BudgetInput(_PredictionTuple):
    """One ISN's prediction tuple <Q^K, Q^{K/2}, L_current, L_boosted>.

    An immutable tuple, validated at construction.  Algorithm 1 reads the
    fields by position, so it runs equally over these and over rows that
    :meth:`CottagePolicy.budget_inputs` derives from an already-validated
    query-static row.
    """

    __slots__ = ()

    def __new__(
        cls,
        shard_id: int,
        quality_k: int,
        quality_half_k: int,
        latency_current_ms: float,
        latency_boosted_ms: float,
    ) -> "BudgetInput":
        if quality_k < 0 or quality_half_k < 0:
            raise ValueError("quality predictions cannot be negative")
        if latency_current_ms < 0 or latency_boosted_ms < 0:
            raise ValueError("latencies cannot be negative")
        if latency_boosted_ms > latency_current_ms + 1e-9:
            raise ValueError("boosted latency cannot exceed current latency")
        return tuple.__new__(
            cls,
            (shard_id, quality_k, quality_half_k, latency_current_ms, latency_boosted_ms),
        )


@dataclass(frozen=True)
class BudgetDecision:
    """Algorithm 1's output."""

    selected: tuple[int, ...]  # ISNs that will execute the query
    time_budget_ms: float | None  # None when nothing is selected
    boosted: tuple[int, ...]  # subset of selected that must raise frequency
    cut_zero_quality: tuple[int, ...]  # stage-1 cuts (Q^K = 0)
    cut_too_slow: tuple[int, ...]  # stage-2 cuts (slow and Q^{K/2} = 0)


#: A stage-1 survivor ``(shard, Q^{K/2}, L_current, L_boosted)``, queue excluded.
Survivor = tuple[int, int, float, float]


def cut_zero_quality(inputs: list[BudgetInput]) -> tuple[tuple[int, ...], list[Survivor]]:
    """Stage 1 (lines 3-11): the sorted ids of the Q^K = 0 cuts, and the
    survivors in input order.  It reads only the predictions."""
    if not inputs:
        raise ValueError("need at least one ISN prediction")
    # Rows are (shard, Q^K, Q^{K/2}, L_current, L_boosted), read by position.
    cut_zero = tuple(sorted([row[0] for row in inputs if row[1] == 0]))
    return cut_zero, [(row[0], row[2], row[3], row[4]) for row in inputs if row[1] > 0]


def assign_budget(
    survivors: list[Survivor], queues: Sequence[float] | Mapping[int, float],
    boost_margin: float = 1.0,
) -> tuple[tuple[int, ...], float | None, tuple[int, ...], tuple[int, ...]]:
    """Stage 2 (lines 12-21): the boosted-latency walk over the survivors,
    with ``queues[shard]`` (>= 0, Eq. 2's queue term) added to both of a
    survivor's latencies.  Returns ``(selected, time_budget_ms, boosted,
    cut_too_slow)``; the budget is ``None`` when nothing survived."""
    if not survivors:
        return (), None, (), ()
    # Descending boosted latency; ties broken by shard id for determinism
    # (the decoration sorts without a key call per ISN).
    ranked = sorted(
        [
            (-(queues[sid] + boosted), sid, q_half, queues[sid] + current)
            for sid, q_half, current, boosted in survivors
        ]
    )
    # T starts at the slowest survivor's boosted latency (line 13) and
    # tightens until the first K/2 contributor; everyone slower is cut.
    # No survivor touching the top-K/2 means the initial budget stands and
    # every survivor is kept — exactly what the pseudocode does when the
    # loop never fires.
    pivot = next((at for at, row in enumerate(ranked) if row[2] != 0), 0)
    if not 0.0 < boost_margin <= 1.0:
        raise ValueError("boost_margin must be in (0, 1]")
    budget = max(-ranked[pivot][0], 1e-6)
    boost_above = boost_margin * budget + 1e-9
    kept = ranked[pivot:]
    return (
        tuple(sorted([row[1] for row in kept])),
        budget,
        tuple(sorted([row[1] for row in kept if row[3] > boost_above])),
        tuple(sorted([row[1] for row in ranked[:pivot]])),
    )


def determine_time_budget(
    inputs: list[BudgetInput], boost_margin: float = 1.0
) -> BudgetDecision:
    """Run Algorithm 1 over all ISNs' prediction tuples: stage 2 of stage 1
    with a zero queue (``0.0 + x == x``, so the latencies stand as given).

    ``boost_margin`` scales the boost test: an ISN boosts when its
    current-frequency latency exceeds ``boost_margin * budget``.  1.0 is
    the paper's literal rule (boost only when the deadline would otherwise
    be missed); smaller values boost proactively, absorbing latency
    under-prediction at some power cost.
    """
    cut_zero, survivors = cut_zero_quality(inputs)
    zero_queue = {row[0]: 0.0 for row in survivors}
    selected, budget, boosted, cut_too_slow = assign_budget(survivors, zero_queue, boost_margin)
    return BudgetDecision(selected, budget, boosted, cut_zero, cut_too_slow)
