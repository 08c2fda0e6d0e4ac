"""Extension — statistical significance of the latency improvements.

Paired bootstrap (per-query, same trace) confidence intervals for each
policy's mean latency saving over exhaustive search.  Heavy-tailed,
autocorrelated latencies make eyeballed means untrustworthy; this is the
check that the paper's Fig. 10 orderings are not noise here.

Pays for: EXPERIMENTS.md "Beyond the paper": the "Significance" bullet (hand-run).
"""

from repro.metrics import compare_latencies


def test_ext_significance(testbed):
    trace = testbed.wikipedia_trace
    exhaustive = testbed.run(trace, "exhaustive")
    results = {}
    for policy in ("taily", "rank_s", "cottage"):
        results[policy] = compare_latencies(exhaustive, testbed.run(trace, policy))

    print("\nExtension — paired-bootstrap latency savings vs exhaustive (wiki):")
    for policy, r in results.items():
        marker = "significant" if r.significant else "NOT significant"
        print(
            f"  {policy:<8} mean saving {r.mean_difference:6.2f} ms  "
            f"95% CI [{r.ci_low:6.2f}, {r.ci_high:6.2f}]  {marker}"
        )
    # Cottage's saving is real and the largest of the three.
    assert results["cottage"].significant and results["cottage"].ci_low > 0
    assert (
        results["cottage"].mean_difference
        >= max(results["taily"].mean_difference, results["rank_s"].mean_difference)
    )
