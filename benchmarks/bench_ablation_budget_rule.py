"""Ablation — the Q^{K/2} budget bar (DESIGN.md "Budget rule uses Q^{K/2}").

Algorithm 1 sacrifices slow ISNs that only touch the bottom half of the
top-K.  This bench compares the paper's rule against the conservative
variant that pivots on Q^K (never sacrifices any contributor) and against
running with no prediction slack.
"""

import numpy as np

from repro.core import CottagePolicy
from repro.metrics import summarize_run


def _summary(testbed, policy):
    trace = testbed.wikipedia_trace
    run = testbed.cluster.run_trace(trace, policy)
    return summarize_run(run, testbed.truth_for(trace), trace.name)


def test_ablation_budget_rule(testbed):
    variants = {
        "paper (pivot K/2)": CottagePolicy(testbed.bank, network=testbed.cluster.network),
        "conservative (pivot K)": CottagePolicy(
            testbed.bank, pivot_on_full_k=True, network=testbed.cluster.network
        ),
        "no slack": CottagePolicy(
            testbed.bank, budget_slack=1.0, network=testbed.cluster.network
        ),
    }
    rows = {}
    for name in variants:
        rows[name] = _summary(testbed, variants[name])

    print("\nAblation — stage-2 budget bar (Wikipedia trace):")
    print("  variant                  avg_ms   p95_ms   P@10   ISNs")
    for name, s in rows.items():
        print(
            f"  {name:<24} {s.avg_latency_ms:6.2f}  {s.p95_latency_ms:7.2f}"
            f"  {s.avg_precision:.3f}  {s.avg_selected_isns:5.2f}"
        )
    paper_rule = rows["paper (pivot K/2)"]
    conservative = rows["conservative (pivot K)"]
    no_slack = rows["no slack"]
    # Pivoting on K keeps more ISNs (>= quality, >= latency).
    assert conservative.avg_precision >= paper_rule.avg_precision - 0.02
    assert conservative.avg_latency_ms >= paper_rule.avg_latency_ms * 0.95
    # Removing slack loses quality through missed deadlines.
    assert no_slack.avg_precision <= paper_rule.avg_precision + 0.01
    assert np.isfinite(no_slack.avg_latency_ms)
