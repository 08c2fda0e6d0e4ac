"""Headline claims — abstract numbers, measured (see EXPERIMENTS.md)."""

from conftest import full_fidelity

from repro.experiments import headline


def test_headline(benchmark, testbed):
    result = benchmark.pedantic(lambda: headline.run(testbed), rounds=1, iterations=1)
    print()
    print(headline.format_report(result))
    # How much retrieval the memo layer absorbed.
    stats = testbed.cluster.searcher_cache_stats()
    print(
        f"retrieval memo: "
        f"{sum(s.hits for s in stats)} hits / "
        f"{sum(s.computations for s in stats)} evaluations"
    )
    # The reproduction's bars (documented in EXPERIMENTS.md): direction and
    # rough magnitude of every abstract claim.
    assert result.latency_reduction > 0.2
    assert result.p95_factor > 1.4
    assert result.docs_ratio > 1.1
    assert result.p_at_10 > 0.75
    if full_fidelity(testbed):
        assert result.latency_reduction > 0.3
        assert result.docs_ratio > 1.3
        assert result.power_saving > 0.05
        assert result.p_at_10 > 0.85
