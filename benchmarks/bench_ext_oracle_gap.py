"""Extension — how much of the oracle gap does Cottage capture?

An oracle with perfect quality and latency knowledge bounds what
Cottage's mechanism (cut + budget + boost) could possibly achieve.  This
bench reports exhaustive vs Cottage vs oracle and the fraction of the
oracle's latency/resource gains the learned predictions realize.

Pays for: EXPERIMENTS.md "Beyond the paper": "~90% of the oracle's gain" (hand-run).
"""

from repro.metrics import summarize_run
from repro.policies import OraclePolicy


def test_ext_oracle_gap(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)
    oracle = OraclePolicy(testbed.cluster, truth)

    rows = {
        "exhaustive": summarize_run(testbed.run(trace, "exhaustive"), truth),
        "cottage": summarize_run(testbed.run(trace, "cottage"), truth),
        "oracle": summarize_run(
            testbed.cluster.run_trace(trace, oracle), truth
        ),
    }

    print("\nExtension — oracle gap (wikipedia):")
    print("  policy      avg_ms   P@10   ISNs   C_RES")
    for name, s in rows.items():
        print(
            f"  {name:<10} {s.avg_latency_ms:7.2f}  {s.avg_precision:.3f}"
            f"  {s.avg_selected_isns:5.2f}  {s.avg_docs_searched:7.1f}"
        )
    ex, co, orc = rows["exhaustive"], rows["cottage"], rows["oracle"]
    latency_capture = (ex.avg_latency_ms - co.avg_latency_ms) / max(
        ex.avg_latency_ms - orc.avg_latency_ms, 1e-9
    )
    print(f"  latency-gap capture: {latency_capture:.0%}")

    # The oracle is perfect on quality and at least as selective as Cottage.
    assert orc.avg_precision > 0.99
    assert orc.avg_selected_isns <= co.avg_selected_isns + 0.5
    # Cottage captures a substantial share of the achievable latency gain.
    assert latency_capture > 0.5
