"""Fig. 9 — a worked time-budget determination example.

For one query, dump every ISN's <Q^K, Q^{K/2}, L_current, L_boosted>
prediction tuple and walk Algorithm 1 over it: which ISNs stage 1 cuts,
where the stage-2 pivot lands, the resulting budget, and who gets boosted.
The paper's example uses K=20; the harness uses the testbed's K with the
same mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.types import ClusterView
from repro.core.budget import BudgetDecision, BudgetInput, determine_time_budget
from repro.core.cottage import BOOST_MARGIN, CottagePolicy
from repro.experiments.testbed import Testbed


@dataclass(frozen=True)
class BudgetExampleResult:
    query_terms: tuple[str, ...]
    inputs: list[BudgetInput]
    decision: BudgetDecision


def run(testbed: Testbed) -> BudgetExampleResult:
    policy = testbed.make_policy("cottage")
    assert isinstance(policy, CottagePolicy)
    n = testbed.cluster.n_shards
    view = ClusterView(
        now_ms=0.0,
        n_shards=n,
        default_freq_ghz=testbed.cluster.freq_scale.default_ghz,
        max_freq_ghz=testbed.cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(0.0 for _ in range(n)),
    )
    # Pick the distinct query with the most interesting decision: some
    # stage-1 cuts, some survivors, at least one boost.
    best_query, best_inputs, best_decision, best_score = None, None, None, -1
    for query in list({q.terms: q for q in testbed.wikipedia_trace}.values())[:60]:
        inputs = policy.budget_inputs(query, view)
        decision = determine_time_budget(inputs, boost_margin=BOOST_MARGIN)
        score = (
            min(len(decision.cut_zero_quality), 4)
            + min(len(decision.boosted), 2) * 2
            + min(len(decision.cut_too_slow), 2) * 3
        )
        if score > best_score and decision.selected:
            best_query, best_inputs, best_decision, best_score = (
                query, inputs, decision, score,
            )
    assert best_query is not None and best_inputs is not None
    return BudgetExampleResult(
        query_terms=best_query.terms, inputs=best_inputs, decision=best_decision
    )


def format_report(result: BudgetExampleResult) -> str:
    lines = [
        f"Fig. 9 — budget determination for query {' '.join(result.query_terms)!r}",
        " ISN   Q^K  Q^K/2  L_current  L_boosted",
    ]
    for isn in result.inputs:
        lines.append(
            f"  {isn.shard_id:<4d} {isn.quality_k:4d} {isn.quality_half_k:6d} "
            f"{isn.latency_current_ms:9.2f} {isn.latency_boosted_ms:10.2f}"
        )
    decision = result.decision
    lines.append(f"stage 1 cut (Q^K=0):        {list(decision.cut_zero_quality)}")
    lines.append(f"stage 2 cut (slow, no K/2): {list(decision.cut_too_slow)}")
    lines.append(f"selected:                   {list(decision.selected)}")
    lines.append(f"time budget:                {decision.time_budget_ms:.2f} ms")
    lines.append(f"boosted to f_max:           {list(decision.boosted)}")
    return "\n".join(lines)
