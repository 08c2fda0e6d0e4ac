"""Integration tests for the experiment harnesses (unit-scale testbed).

Each harness must run end to end, produce a well-formed result, and render
a report.  Structure is asserted here; the paper's numbers and orderings
are claims in ``repro.experiments.scoreboard``, pinned at unit scale by
``tests/test_scoreboard.py``.
"""

import pytest

from repro.experiments import (
    fig02_variation,
    fig03_policy_example,
    fig04_frequency,
    fig06_score_distribution,
    fig07_quality_predictor,
    fig08_latency_predictor,
    fig09_budget_example,
    fig10_latency,
    fig11_quality,
    fig12_scatter,
    fig13_active_isns,
    fig14_power,
    fig15_ablation,
    headline,
    tables_features,
)
from repro.experiments import beyond
from repro.experiments.testbed import Scale, Testbed
from repro.predictors import LatencyPredictor, QualityPredictor
from repro.workloads import training_queries


class TestScale:
    def test_presets_ordered_by_size(self):
        unit, small, full = Scale.unit(), Scale.small(), Scale.full()
        assert unit.corpus.n_docs < small.corpus.n_docs < full.corpus.n_docs
        assert unit.n_training_queries < small.n_training_queries


class TestTestbed:
    def test_build_components(self, unit_testbed):
        tb = unit_testbed
        assert tb.cluster.n_shards == tb.scale.n_shards
        assert tb.bank.trained
        assert len(tb.wikipedia_trace) > 0
        assert len(tb.lucene_trace) > 0

    def test_policy_factory_names(self, unit_testbed):
        for name in unit_testbed.ABLATIONS + ("aggregation", "rank_s"):
            assert unit_testbed.make_policy(name).name == name

    def test_policy_factory_unknown(self, unit_testbed):
        with pytest.raises(ValueError):
            unit_testbed.make_policy("bogus")

    def test_policies_are_fresh_instances(self, unit_testbed):
        assert unit_testbed.make_policy("aggregation") is not unit_testbed.make_policy(
            "aggregation"
        )

    def test_run_cache(self, unit_testbed):
        trace = unit_testbed.wikipedia_trace
        assert unit_testbed.run(trace, "exhaustive") is unit_testbed.run(
            trace, "exhaustive"
        )

    def test_truth_covers_trace(self, unit_testbed):
        truth = unit_testbed.truth_for(unit_testbed.wikipedia_trace)
        for query in unit_testbed.wikipedia_trace:
            assert query in truth


class TestHarnesses:
    def test_fig02(self, unit_testbed):
        result = fig02_variation.run(unit_testbed)
        assert sum(c for _, _, c in result.latency_bins) == result.n_queries
        assert len(result.latency_bins) >= 4  # a long tail beyond the modal bin
        assert sum(result.contributing_histogram.values()) > 0
        assert "Fig. 2" in fig02_variation.format_report(result)

    def test_fig03(self, unit_testbed):
        result = fig03_policy_example.run(unit_testbed)
        assert len(result.service_ms) == unit_testbed.cluster.n_shards
        assert {o.policy for o in result.outcomes} == {
            "exhaustive", "aggregation", "selective (taily)", "cottage",
        }
        assert "Fig. 3" in fig03_policy_example.format_report(result)

    def test_fig04(self, unit_testbed):
        result = fig04_frequency.run(unit_testbed)
        assert result.speedup == pytest.approx(2.7 / 1.2)
        assert "Fig. 4" in fig04_frequency.format_report(result)

    def test_fig06(self, unit_testbed):
        result = fig06_score_distribution.run(unit_testbed)
        assert result.true_above_kth >= 0
        assert "Fig. 6" in fig06_score_distribution.format_report(result)

    def test_fig07(self, unit_testbed):
        result = fig07_quality_predictor.run(unit_testbed)
        assert result.curve_iterations == [25, 50, 75]
        assert len(result.curve_loss) == 3
        assert len(result.per_isn_accuracy) == unit_testbed.cluster.n_shards
        assert "Fig. 7" in fig07_quality_predictor.format_report(result)

    def test_fig08(self, unit_testbed):
        result = fig08_latency_predictor.run(unit_testbed)
        assert result.curve_iterations == [25, 50, 75]
        assert len(result.per_isn_accuracy) == unit_testbed.cluster.n_shards
        assert "Fig. 8" in fig08_latency_predictor.format_report(result)

    @pytest.mark.parametrize("figure", ["fig07", "fig08"])
    def test_curve_point_is_the_banks_isn0_fit(self, unit_testbed, figure):
        """The (a) curve's point at iteration N is the held-out accuracy of
        ISN-0's bank model after N iterations: a fresh predictor with the
        bank's ISN-0 seeds, fit N iterations on the report's split, scores
        the same (exact class for quality, exact bin for latency)."""
        tb, n = unit_testbed, 75
        seed, bank = tb.scale.seed, tb.bank
        report = tb.training_report
        if figure == "fig07":
            result = fig07_quality_predictor.run(tb)
            train, test = report.quality_data[0]
            model = QualityPredictor(bank.k, bank.hidden_layers, bank.hidden_units,
                                     seed=seed)
            model.fit(train.features, train.labels_k, iterations=n, seed=seed)
            expected = model.accuracy(test.features, test.labels_k)
        else:
            result = fig08_latency_predictor.run(tb)
            train, test = report.latency_data[0]
            model = LatencyPredictor(None, bank.hidden_layers, bank.hidden_units,
                                     seed=seed + 200)
            model.fit(train.features, train.service_ms, iterations=n, seed=seed)
            expected = model.accuracy(test.features, test.service_ms, tolerance_bins=0)
        assert result.curve_accuracy[result.curve_iterations.index(n)] == expected

    def test_predictor_figures_never_search_on_the_run_cluster(self):
        """Figs. 7/8 and the latency-bin sweep read the bank's training
        data, so no training query reaches the run cluster's memo."""
        tb = Testbed.build(Scale.unit())
        fig07_quality_predictor.run(tb)
        fig08_latency_predictor.run(tb)
        beyond._latency_bins(tb)
        in_traces = {q.terms for trace in (tb.wikipedia_trace, tb.lucene_trace)
                     for q in trace}
        queries = training_queries(tb.corpus, tb.scale.n_training_queries,
                                   seed=tb.scale.seed + 1000)
        unseen = [q for q in queries if q.terms not in in_traces]
        assert unseen
        searchers = tb.cluster.searcher.searchers
        assert [q.terms for q in unseen if any(s.is_cached(q) for s in searchers)] == []

    def test_fig09(self, unit_testbed):
        result = fig09_budget_example.run(unit_testbed)
        assert len(result.inputs) == unit_testbed.cluster.n_shards
        assert "time budget" in fig09_budget_example.format_report(result)

    def test_fig10(self, unit_testbed):
        result = fig10_latency.run(unit_testbed)
        assert set(result.summaries) == set(result.timelines) == {"wikipedia", "lucene"}
        for row in result.summaries.values():
            assert list(row) == list(fig10_latency.POLICIES)
            assert all(s.avg_latency_ms > 0 for s in row.values())
        assert "Fig. 10" in fig10_latency.format_report(result)

    def test_fig12(self, unit_testbed):
        result = fig12_scatter.run(unit_testbed)
        assert set(result.points) == set(fig12_scatter.POLICIES)
        for fraction in result.fast_good_fraction.values():
            assert 0.0 <= fraction <= 1.0
        assert "Fig. 12" in fig12_scatter.format_report(result)

    def test_fig14(self, unit_testbed):
        result = fig14_power.run(unit_testbed)
        assert result.idle_w > 0
        for row in result.summaries.values():
            assert all(s.avg_power_w >= result.idle_w for s in row.values())
        assert "Fig. 14" in fig14_power.format_report(result)

    def test_fig15(self, unit_testbed):
        result = fig15_ablation.run(unit_testbed)
        for rows in result.summaries.values():
            assert list(rows) == list(fig15_ablation.SCHEMES)
            assert [s.policy for s in rows.values()] == list(fig15_ablation.SCHEMES)
        assert "Fig. 15" in fig15_ablation.format_report(result)

    def test_fig11(self, unit_testbed):
        result = fig11_quality.run(unit_testbed)
        assert result.summaries["wikipedia"]["exhaustive"].avg_precision == 1.0
        assert "Fig. 11" in fig11_quality.format_report(result)

    def test_fig13(self, unit_testbed):
        result = fig13_active_isns.run(unit_testbed)
        n = unit_testbed.cluster.n_shards
        assert result.summaries["wikipedia"]["exhaustive"].avg_selected_isns == n
        assert "Fig. 13" in fig13_active_isns.format_report(result)

    def test_tables(self, unit_testbed):
        result = tables_features.run(unit_testbed)
        assert len(result.quality_table) == 10
        assert len(result.latency_table) == 15
        report = tables_features.format_report(result)
        assert "Table I" in report and "Table II" in report

    def test_headline(self, unit_testbed):
        result = headline.run(unit_testbed)
        assert result.latency_speedup > 1.0
        assert 0.0 < result.p_at_10 <= 1.0
        assert "Headline" in headline.format_report(result)
