"""Microbenchmarks — predictor inference and Algorithm 1 decision cost.

The paper reports 41 us (quality) and 70 us (latency) per inference and
argues the whole coordination round is negligible; these benches measure
the reproduction's equivalents.
"""

from repro.cluster.types import ClusterView
from repro.core import CottagePolicy
from repro.predictors import latency_features, quality_features


def _view(testbed):
    n = testbed.cluster.n_shards
    return ClusterView(
        now_ms=0.0,
        n_shards=n,
        default_freq_ghz=testbed.cluster.freq_scale.default_ghz,
        max_freq_ghz=testbed.cluster.freq_scale.max_ghz,
        queued_predicted_ms=tuple(0.0 for _ in range(n)),
    )


def test_micro_quality_inference(benchmark, testbed):
    query = testbed.wikipedia_trace[0]
    stats = testbed.bank.stats_indexes[0]
    features = quality_features(query.terms, stats)
    model = testbed.bank.quality_k_models[0]
    count = benchmark(lambda: model.predict_one(features))
    assert 0 <= count <= testbed.cluster.k


def test_micro_latency_inference(benchmark, testbed):
    query = testbed.wikipedia_trace[0]
    stats = testbed.bank.stats_indexes[0]
    features = latency_features(query.terms, stats)
    model = testbed.bank.latency_models[0]
    service = benchmark(lambda: model.predict_one_ms(features))
    assert service > 0


def test_micro_budget_decision(benchmark, testbed):
    policy = CottagePolicy(testbed.bank, network=testbed.cluster.network)
    view = _view(testbed)
    query = testbed.wikipedia_trace[0]
    policy.decide(query, view)  # warm the prediction cache
    decision = benchmark(lambda: policy.decide(query, view))
    assert decision.shard_ids
