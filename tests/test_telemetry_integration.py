"""Telemetry wired through the cluster: invariance, spans, run stats.

The load-bearing guarantee: attaching a :class:`Telemetry` session to
``run_trace`` observes the simulation without perturbing it — latencies,
power and merged results are bit-identical with telemetry on or off.
"""

import pytest

from repro.cluster import ResultCache
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def paired_runs(unit_testbed):
    """The same cottage run, once with telemetry and once without."""
    trace = unit_testbed.wikipedia_trace
    telemetry = Telemetry()
    with_tel = unit_testbed.cluster.run_trace(
        trace, unit_testbed.make_policy("cottage"), telemetry=telemetry
    )
    without = unit_testbed.cluster.run_trace(
        trace, unit_testbed.make_policy("cottage")
    )
    return telemetry, with_tel, without


class TestBitIdentity:
    def test_latencies_identical(self, paired_runs):
        _, with_tel, without = paired_runs
        assert with_tel.latencies_ms() == without.latencies_ms()

    def test_power_identical(self, paired_runs):
        _, with_tel, without = paired_runs
        assert with_tel.power == without.power

    def test_results_identical(self, paired_runs):
        _, with_tel, without = paired_runs
        assert len(with_tel.records) == len(without.records)
        for a, b in zip(with_tel.records, without.records):
            assert a.result.hits == b.result.hits
            assert a.decision.shard_ids == b.decision.shard_ids

    def test_events_processed_identical(self, paired_runs):
        _, with_tel, without = paired_runs
        assert with_tel.events_processed == without.events_processed


class TestQueryLifecycleSpans:
    """The acceptance path: predict -> budget-assign -> service -> merge."""

    def test_cottage_pipeline_spans_present(self, paired_runs):
        telemetry, with_tel, _ = paired_runs
        by_name: dict[str, int] = {}
        for span in telemetry.tracer.spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        n = len(with_tel.records)
        assert by_name["query"] == n
        assert by_name["aggregator.decide"] == n
        assert by_name["policy.predict"] == n
        assert by_name["policy.budget_assign"] == n
        assert by_name["aggregator.merge"] == n
        assert by_name["isn.service"] > 0

    def test_policy_spans_nest_inside_decide(self, paired_runs):
        telemetry, _, _ = paired_runs
        for span in telemetry.tracer.spans:
            if span.name in ("policy.predict", "policy.budget_assign"):
                assert span.path[0] == "aggregator.decide"
                assert span.track == "aggregator"

    def test_isn_service_spans_sequential_per_track(self, paired_runs):
        telemetry, _, _ = paired_runs
        services = [s for s in telemetry.tracer.spans if s.name == "isn.service"]
        by_track: dict[str, list] = {}
        for span in services:
            by_track.setdefault(span.track, []).append(span)
        assert by_track  # at least one ISN did work
        for spans in by_track.values():
            spans.sort(key=lambda s: s.sim_begin_ms)
            for prev, nxt in zip(spans, spans[1:]):
                # Single core: intervals never overlap.
                assert nxt.sim_begin_ms >= prev.sim_end_ms - 1e-9

    def test_no_spans_left_open(self, paired_runs):
        telemetry, _, _ = paired_runs
        assert telemetry.tracer.open_spans() == []

    def test_dual_clocks_recorded(self, paired_runs):
        telemetry, _, _ = paired_runs
        services = [s for s in telemetry.tracer.spans if s.name == "isn.service"]
        assert any(s.sim_ms > 0 for s in services)
        replay = [s for s in telemetry.tracer.spans if s.name == "cluster.replay"]
        assert len(replay) == 1
        assert replay[0].wall_ms > 0.0
        assert replay[0].sim_ms > 0.0


class TestRunStats:
    """Satellite: events/cache accounting on RunResult and PolicySummary."""

    def test_run_result_accounting(self, paired_runs):
        _, with_tel, without = paired_runs
        for run in (with_tel, without):
            assert run.events_processed > len(run.records)
            assert run.clamped_schedules == 0
            assert run.searcher_hits >= 0
            assert run.searcher_computations >= 0
            # The replay touched every query at least once somewhere.
            assert run.searcher_hits + run.searcher_computations > 0

    def test_second_run_hits_searcher_memo(self, paired_runs):
        # The first run warmed the memo; the second is pure hits.
        _, _, without = paired_runs
        assert without.searcher_hits > 0
        assert without.searcher_computations == 0

    def test_policy_summary_carries_stats(self, unit_testbed, paired_runs):
        from repro.metrics.summary import summarize_run

        _, with_tel, _ = paired_runs
        truth = unit_testbed.truth_for(unit_testbed.wikipedia_trace)
        summary = summarize_run(with_tel, truth, trace_name="wikipedia")
        assert summary.events_processed == with_tel.events_processed
        assert summary.searcher_hits == with_tel.searcher_hits
        assert summary.searcher_computations == with_tel.searcher_computations
        assert summary.result_cache_hit_rate is None  # ran without a cache
        assert summary.row()["events"] == with_tel.events_processed

    def test_result_cache_hit_rate_populated(self, unit_testbed):
        from repro.metrics.summary import summarize_run

        trace = unit_testbed.wikipedia_trace
        run = unit_testbed.cluster.run_trace(
            trace,
            unit_testbed.make_policy("cottage"),
            cache=ResultCache(capacity=256),
        )
        truth = unit_testbed.truth_for(trace)
        summary = summarize_run(run, truth, trace_name="wikipedia")
        assert summary.result_cache_hit_rate is not None
        assert 0.0 < summary.result_cache_hit_rate < 1.0


class TestMetricsFlow:
    def test_core_instruments_populated(self, paired_runs):
        telemetry, with_tel, _ = paired_runs
        snapshot = telemetry.metrics.snapshot()
        n = len(with_tel.records)
        assert snapshot["aggregator.latency_ms"]["count"] == n
        assert snapshot["run.queries"]["value"] == n
        assert snapshot["run.events_processed"]["value"] == with_tel.events_processed
        assert snapshot["sim.schedule_at.clamped"]["value"] == 0
        kept = snapshot["cottage.kept"]["value"]
        cut = (
            snapshot["cottage.cut_zero_quality"]["value"]
            + snapshot["cottage.cut_too_slow"]["value"]
        )
        # Every (query, shard) pair is either kept or cut.
        assert kept + cut == n * unit_shards(telemetry)
        assert any(
            name.startswith("isn.freq_residency_ms.") for name in snapshot
        )

    def test_rebinding_restores_disabled_session(self, unit_testbed, paired_runs):
        # After a telemetry run, a fresh policy records nothing anywhere.
        policy = unit_testbed.make_policy("cottage")
        from repro.telemetry import NO_TELEMETRY

        assert policy.telemetry is NO_TELEMETRY

    def test_disabled_session_records_nothing(self, unit_testbed):
        from repro.telemetry import NO_TELEMETRY

        run = unit_testbed.cluster.run_trace(
            unit_testbed.wikipedia_trace, unit_testbed.make_policy("cottage"),
            telemetry=NO_TELEMETRY,
        )
        assert run.records
        assert NO_TELEMETRY.tracer.spans == []
        assert len(NO_TELEMETRY.metrics) == 0


def unit_shards(telemetry) -> int:
    """Shard count recovered from the recorded ISN tracks."""
    return sum(1 for t in telemetry.tracer.tracks if t.startswith("isn."))
