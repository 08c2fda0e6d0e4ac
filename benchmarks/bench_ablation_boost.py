"""Ablation — frequency boosting (DESIGN.md "Frequency boost = jump to f_max").

Cottage accelerates slow high-quality ISNs to f_max.  Disabling the boost
forces Algorithm 1 to budget at current-frequency latencies: the budget
grows, latency rises, power falls — the paper's motivation for boosting in
the first place.
"""

from repro.core import CottagePolicy
from repro.metrics import summarize_run


def test_ablation_boost(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    with_boost = summarize_run(
        testbed.cluster.run_trace(
            trace, CottagePolicy(testbed.bank, network=testbed.cluster.network)
        ),
        truth, trace.name,
    )
    without = summarize_run(
        testbed.cluster.run_trace(
            trace,
            CottagePolicy(testbed.bank, enable_boost=False,
                          network=testbed.cluster.network),
        ),
        truth, trace.name,
    )

    print("\nAblation — frequency boosting (Wikipedia trace):")
    for name, s in (("with boost", with_boost), ("without boost", without)):
        print(
            f"  {name:<14} avg={s.avg_latency_ms:6.2f} ms  p95={s.p95_latency_ms:6.2f}"
            f"  P@10={s.avg_precision:.3f}  power={s.avg_power_w:.2f} W"
        )
    # Boosting buys latency at a power premium.
    assert with_boost.avg_latency_ms <= without.avg_latency_ms * 1.02
    assert with_boost.avg_power_w >= without.avg_power_w * 0.98
