"""Unit + property tests for Algorithm 1 (time budget determination)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BudgetInput, determine_time_budget


def isn(sid, q_k, q_half, current, boosted=None):
    return BudgetInput(
        shard_id=sid,
        quality_k=q_k,
        quality_half_k=q_half,
        latency_current_ms=current,
        latency_boosted_ms=boosted if boosted is not None else current / 1.286,
    )


class TestPaperExample:
    """The paper's Fig. 9 walkthrough (K=20).

    Re-sorted boosted-latency order is <7, 1, 13, 2, 6, 5, 15, 16, 3, 8,
    10, 11>; ISN-7 has no top-K/2 contribution so it is sacrificed, ISN-1
    (one K/2 doc, 16 ms boosted) sets the budget, and ISNs 4, 9, 12, 14
    are stage-1 cuts.  Latency values are read off the figure; only the
    ordering matters.
    """

    def _inputs(self):
        # (shard, Q^K, Q^K/2, boosted latency ms); current = boosted * 1.286
        table = [
            (1, 3, 1, 16.0),
            (2, 4, 2, 12.0),
            (3, 2, 1, 8.0),
            (4, 0, 0, 9.0),
            (5, 1, 1, 10.5),
            (6, 2, 1, 11.0),
            (7, 2, 0, 18.0),
            (8, 1, 0, 7.5),
            (9, 0, 0, 14.0),
            (10, 1, 1, 7.0),
            (11, 1, 0, 6.0),
            (12, 0, 0, 10.0),
            (13, 3, 2, 11.5),
            (14, 0, 0, 5.0),
            (15, 2, 1, 10.0),
            (16, 1, 0, 9.5),
        ]
        return [
            isn(sid, qk, qh, boosted * 1.286, boosted)
            for sid, qk, qh, boosted in table
        ]

    def test_stage1_cuts_zero_quality(self):
        decision = determine_time_budget(self._inputs())
        assert decision.cut_zero_quality == (4, 9, 12, 14)

    def test_isn7_sacrificed_isn1_sets_budget(self):
        decision = determine_time_budget(self._inputs())
        assert 7 in decision.cut_too_slow
        assert decision.time_budget_ms == pytest.approx(16.0)
        assert 1 in decision.selected

    def test_slow_contributors_boosted(self):
        decision = determine_time_budget(self._inputs())
        # ISN-1's current latency (16 * 1.286) exceeds the 16 ms budget.
        assert 1 in decision.boosted


class TestEdgeCases:
    def test_all_zero_quality_selects_nothing(self):
        decision = determine_time_budget([isn(0, 0, 0, 10.0), isn(1, 0, 0, 5.0)])
        assert decision.selected == ()
        assert decision.time_budget_ms is None
        assert decision.cut_zero_quality == (0, 1)

    def test_single_contributor(self):
        decision = determine_time_budget([isn(0, 2, 1, 10.0)])
        assert decision.selected == (0,)
        assert decision.time_budget_ms == pytest.approx(10.0 / 1.286)

    def test_no_half_k_contributor_keeps_everyone(self):
        # The pseudocode's loop never fires: initial budget (slowest
        # survivor) stands and nobody is sacrificed.
        inputs = [isn(0, 1, 0, 10.0), isn(1, 2, 0, 20.0)]
        decision = determine_time_budget(inputs)
        assert decision.selected == (0, 1)
        assert decision.time_budget_ms == pytest.approx(20.0 / 1.286)
        assert decision.cut_too_slow == ()

    def test_pivot_first_not_last(self):
        # Two K/2 contributors: the budget is the SLOWER one's boosted
        # latency (walk stops at the first pivot).
        inputs = [isn(0, 1, 1, 30.0, 20.0), isn(1, 1, 1, 15.0, 10.0)]
        decision = determine_time_budget(inputs)
        assert decision.time_budget_ms == pytest.approx(20.0)

    def test_boost_margin_boosts_proactively(self):
        inputs = [isn(0, 1, 1, 10.0, 8.0), isn(1, 1, 1, 7.5, 6.0)]
        literal = determine_time_budget(inputs, boost_margin=1.0)
        eager = determine_time_budget(inputs, boost_margin=0.5)
        assert set(literal.boosted) <= set(eager.boosted)
        assert 1 in eager.boosted  # 7.5 > 0.5 * 8.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            determine_time_budget([])

    def test_bad_boost_margin_rejected(self):
        with pytest.raises(ValueError):
            determine_time_budget([isn(0, 1, 1, 5.0)], boost_margin=0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BudgetInput(0, -1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BudgetInput(0, 1, 0, 1.0, 2.0)  # boosted slower than current
        with pytest.raises(ValueError):
            BudgetInput(0, 1, 0, -1.0, -2.0)
        with pytest.raises(ValueError):  # keywords go through the same checks
            BudgetInput(
                shard_id=0, quality_k=1, quality_half_k=-1,
                latency_current_ms=1.0, latency_boosted_ms=1.0,
            )

    def test_input_is_an_immutable_tuple(self):
        row = BudgetInput(3, 2, 1, 10.0, 8.0)
        with pytest.raises(AttributeError):
            row.quality_k = 0
        with pytest.raises(AttributeError):
            row.extra = 1  # no instance dict either
        assert row == (3, 2, 1, 10.0, 8.0)
        assert (row.shard_id, row.latency_boosted_ms) == (row[0], row[4])

    def test_plain_rows_decide_like_budget_inputs(self):
        # Algorithm 1 reads positions, so the policy's query-static rows
        # and public BudgetInputs are interchangeable.
        inputs = [isn(0, 2, 0, 30.0, 25.0), isn(1, 1, 1, 20.0, 15.0), isn(2, 0, 0, 5.0)]
        assert determine_time_budget([tuple(i) for i in inputs]) == (
            determine_time_budget(inputs)
        )


@st.composite
def budget_inputs(draw):
    n = draw(st.integers(1, 20))
    inputs = []
    for sid in range(n):
        q_k = draw(st.integers(0, 10))
        q_half = draw(st.integers(0, q_k)) if q_k else 0
        boosted = draw(st.floats(0.1, 50.0))
        ratio = draw(st.floats(1.0, 3.0))
        inputs.append(isn(sid, q_k, q_half, boosted * ratio, boosted))
    return inputs


def seeded_cluster(n, seed=0):
    """``n`` ISNs of seeded random predictions: the paper's "few hundred ISNs"."""
    rng = np.random.default_rng(seed)
    inputs = []
    for sid in range(n):
        q_k = int(rng.integers(0, 4))
        q_half = int(rng.integers(0, q_k + 1)) if q_k else 0
        boosted = float(rng.uniform(1.0, 30.0))
        inputs.append(isn(sid, q_k, q_half, boosted * 1.286, boosted))
    return inputs


@settings(max_examples=200, deadline=None)
@given(inputs=budget_inputs())
@example(inputs=seeded_cluster(512))
def test_algorithm_invariants(inputs):
    decision = determine_time_budget(inputs)
    by_id = {i.shard_id: i for i in inputs}
    all_ids = {i.shard_id for i in inputs}

    # Partition: every ISN is selected or cut, never both.
    cut = set(decision.cut_zero_quality) | set(decision.cut_too_slow)
    assert set(decision.selected) | cut == all_ids
    assert not set(decision.selected) & cut

    # Stage 1 cuts exactly the zero-Q^K ISNs.
    assert set(decision.cut_zero_quality) == {
        i.shard_id for i in inputs if i.quality_k == 0
    }

    if decision.selected:
        budget = decision.time_budget_ms
        # Every kept ISN can meet the budget at boosted frequency.
        for sid in decision.selected:
            assert by_id[sid].latency_boosted_ms <= budget + 1e-9
        # Stage-2 cuts are slower than the budget and touch no top-K/2 doc.
        for sid in decision.cut_too_slow:
            assert by_id[sid].quality_half_k == 0
            assert by_id[sid].latency_boosted_ms >= budget - 1e-9
        # Boosted ISNs are kept ISNs whose current latency misses the bar
        # (default boost_margin = 1.0 here).
        for sid in decision.boosted:
            assert sid in decision.selected
            assert by_id[sid].latency_current_ms > budget - 1e-9
        # No K/2 contributor is ever sacrificed.
        for i in inputs:
            if i.quality_k > 0 and i.quality_half_k > 0:
                assert i.shard_id in decision.selected
