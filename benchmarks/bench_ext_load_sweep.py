"""Extension — latency vs offered load.

The paper evaluates at one operating point; this sweep varies the arrival
rate and shows *why* coordination wins harder under load: exhaustive
search queues on every ISN, while Cottage's smaller fan-out keeps its own
queues short — the gap widens with utilization.

Pays for: EXPERIMENTS.md "Beyond the paper": the "Load sweep" bullet (hand-run).
"""

import numpy as np

from repro.workloads import TraceConfig, generate_trace


def test_ext_load_sweep(testbed):
    base_rate = testbed.scale.trace_rate_qps
    rates = [base_rate * f for f in (0.25, 0.5, 1.0)]
    rows = {}
    for rate in rates:
        trace = generate_trace(
            testbed.corpus,
            TraceConfig(
                flavour="wikipedia",
                n_distinct_queries=testbed.scale.trace_distinct,
                duration_s=min(testbed.scale.trace_duration_s, 20.0),
                arrival_rate_qps=rate,
                seed=testbed.scale.seed + 11,
            ),
        )
        exhaustive = testbed.cluster.run_trace(
            trace, testbed.make_policy("exhaustive")
        )
        cottage = testbed.cluster.run_trace(trace, testbed.make_policy("cottage"))
        rows[rate] = (
            float(np.mean(exhaustive.latencies_ms())),
            float(np.mean(cottage.latencies_ms())),
        )

    print("\nExtension — mean latency vs offered load (wikipedia):")
    print("   qps    exhaustive   cottage   gap")
    gaps = []
    for rate, (ex, co) in rows.items():
        gap = ex / co
        gaps.append(gap)
        print(f"  {rate:6.1f}  {ex:9.2f}  {co:8.2f}  {gap:5.2f}x")
    # Cottage wins at every load, and the advantage does not shrink as the
    # cluster saturates.
    assert all(gap > 1.0 for gap in gaps)
    assert gaps[-1] >= gaps[0] * 0.8
