"""Ablation — confidence-gated zero cutting (EXPERIMENTS.md deviation 2, "~0.83").

The paper cuts on the raw predicted class; at reproduction scale quality
labels are noisier, so Cottage here cuts only on *confident* zeros.  The
sweep shows the quality/resource trade the gate controls (0.0 = the
paper's literal argmax rule).
"""

from repro.core import CottagePolicy
from repro.metrics import summarize_run


def test_ablation_cut_confidence(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    rows = {}
    for confidence in (0.0, 0.5, 0.9, 0.99):
        policy = CottagePolicy(
            testbed.bank, cut_confidence=confidence,
            half_cut_confidence=min(confidence, 0.75),
            network=testbed.cluster.network,
        )
        run = testbed.cluster.run_trace(trace, policy)
        rows[confidence] = summarize_run(run, truth, trace.name)

    print("\nAblation — cut-confidence gate (Wikipedia trace):")
    print("  confidence   avg_ms    P@10   ISNs   C_RES")
    for confidence, s in rows.items():
        print(
            f"  {confidence:<10} {s.avg_latency_ms:7.2f}  {s.avg_precision:.3f}"
            f"  {s.avg_selected_isns:5.2f}  {s.avg_docs_searched:7.1f}"
        )
    # Higher confidence keeps more ISNs and more quality.
    assert rows[0.99].avg_precision >= rows[0.0].avg_precision
    assert rows[0.99].avg_selected_isns >= rows[0.0].avg_selected_isns
