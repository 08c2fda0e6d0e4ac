"""Extension — aggregator result caching (paper ref [1]).

The evaluation traces are Zipf-skewed, so a small aggregator cache
answers a large fraction of queries without touching any ISN — compounding
Cottage's latency and power savings.  Not a paper figure; quantifies how
the reproduction behaves with the production-standard cache in front.

Pays for: EXPERIMENTS.md "Beyond the paper": "answers ~85-90%" (hand-run).
"""

import numpy as np

from repro.cluster import ResultCache
from repro.metrics import summarize_run


def test_ext_result_cache(testbed):
    trace = testbed.wikipedia_trace
    truth = testbed.truth_for(trace)

    plain = summarize_run(testbed.run(trace, "cottage"), truth, trace.name)
    cache = ResultCache(capacity=256)
    cached_run = testbed.cluster.run_trace(
        trace, testbed.make_policy("cottage"), cache=cache
    )
    cached = summarize_run(cached_run, truth, trace.name)

    stats = cached_run.cache_stats
    print("\nExtension — result cache in front of Cottage (wiki):")
    print(f"  hit rate: {stats.hit_rate:.1%} ({stats.hits}/{stats.lookups})")
    print(f"  avg latency: {plain.avg_latency_ms:.2f} -> {cached.avg_latency_ms:.2f} ms")
    print(f"  power:       {plain.avg_power_w:.2f} -> {cached.avg_power_w:.2f} W")
    print(f"  P@10:        {plain.avg_precision:.3f} -> {cached.avg_precision:.3f}")

    assert stats.hit_rate > 0.3
    assert cached.avg_latency_ms < plain.avg_latency_ms
    assert cached.avg_power_w <= plain.avg_power_w + 0.1
    assert not np.isnan(cached.avg_precision)
