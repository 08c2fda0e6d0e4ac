"""Unit tests for the telemetry plane: tracer, metrics, disabled path."""

import numpy as np
import pytest

from repro.cluster.events import Simulator
from repro.telemetry import (
    NO_TELEMETRY,
    NULL_SPAN,
    MetricsRegistry,
    P2Quantile,
    StreamingHistogram,
    Telemetry,
    Tracer,
)


class TestTracer:
    def test_sync_spans_nest_and_record_path(self):
        tracer = Tracer()
        with tracer.span("outer", track="t") as outer:
            with tracer.span("inner", track="t") as inner:
                assert inner.path == ("outer", "inner")
                assert inner.depth == 1
        assert outer.path == ("outer",)
        assert outer.finished and inner.finished
        assert tracer.open_spans() == []
        # Finish order: inner closes first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_sim_clock_binding(self):
        tracer = Tracer()
        now = {"t": 10.0}
        tracer.bind_clock(lambda: now["t"])
        span = tracer.span("work", track="t")
        now["t"] = 25.5
        span.finish()
        assert span.sim_begin_ms == 10.0
        assert span.sim_end_ms == 25.5
        assert span.sim_ms == pytest.approx(15.5)
        assert span.wall_ms >= 0.0

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("x")
        span.finish()
        end = span.sim_end_ms
        span.finish()
        assert span.sim_end_ms == end
        assert len(tracer.spans) == 1

    def test_async_spans_overlap_without_stack(self):
        tracer = Tracer()
        a = tracer.async_span("query", track="agg", qid=1)
        b = tracer.async_span("query", track="agg", qid=2)
        a.finish()
        b.finish()
        assert [phase for phase, _ in tracer.async_log] == ["b", "b", "e", "e"]
        assert tracer.open_spans() == []  # async spans never enter stacks

    def test_instant_is_prefinished(self):
        tracer = Tracer()
        mark = tracer.instant("abort", track="isn.0", shard=0)
        assert mark.finished
        assert mark.sim_ms == 0.0
        assert ("I", mark) in tracer.track_log("isn.0")

    def test_track_log_balanced(self):
        tracer = Tracer()
        with tracer.span("a", track="t"):
            with tracer.span("b", track="t"):
                pass
        kinds = [kind for kind, _ in tracer.track_log("t")]
        assert kinds == ["B", "B", "E", "E"]

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN
        assert tracer.async_span("x") is NULL_SPAN
        assert tracer.instant("x") is NULL_SPAN
        assert tracer.spans == []
        with tracer.span("y"):  # context-manager protocol still works
            pass

    def test_clear_resets_everything(self):
        tracer = Tracer()
        with tracer.span("a", track="t"):
            pass
        tracer.clear()
        assert tracer.spans == []
        assert tracer.tracks == []


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.add()
        counter.add(4.5)
        assert counter.value == 5.5
        assert registry.counter("c") is counter  # get-or-create
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_gauge_tracks_extremes(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(3.0)
        gauge.set(-1.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.min == -1.0
        assert gauge.max == 3.0

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_disabled_registry_returns_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        counter.add(100)
        assert counter.value == 0
        assert registry.counter("b") is counter  # shared singleton
        assert len(registry) == 0
        registry.histogram("h").observe(1.0)
        registry.gauge("g").set(5.0)
        assert registry.snapshot() == {}


class TestP2Quantile:
    def test_exact_below_five_observations(self):
        q = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            q.observe(value)
        assert q.value == 3.0

    @pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
    def test_tracks_exponential_distribution(self, p):
        rng = np.random.default_rng(7)
        samples = rng.exponential(scale=10.0, size=20_000)
        q = P2Quantile(p)
        for value in samples:
            q.observe(float(value))
        exact = float(np.quantile(samples, p))
        assert q.value == pytest.approx(exact, rel=0.05)

    def test_histogram_percentile_forms(self):
        hist = StreamingHistogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)
        assert hist.mean == pytest.approx(50.5)
        # p50/p95/p99 are the P² estimators' answers; nothing else is.
        assert hist.percentile(50) == pytest.approx(50.0, rel=0.1)
        assert hist.percentile(95) == pytest.approx(95.0, rel=0.1)
        for p in (0.5, 90, 99.9):
            with pytest.raises(ValueError, match="percentile must be one of"):
                hist.percentile(p)

    def test_histogram_no_sample_retention(self):
        hist = StreamingHistogram("h")
        for value in range(10_000):
            hist.observe(float(value + 1))
        # Streaming: state is exact moments + P-squared markers, not samples.
        assert not hasattr(hist, "samples")
        snapshot = hist.snapshot()
        assert snapshot["count"] == 10_000

    def test_histogram_out_of_range(self):
        # No value range to fall outside: any magnitude, zero and negatives
        # included, keeps count, min and max exact.
        hist = StreamingHistogram("h")
        for value in (0.001, 1e6, 0.0, -1.0):
            hist.observe(value)
        assert hist.count == 4
        assert (hist.min, hist.max) == (-1.0, 1e6)
        assert hist.percentile(50) == 0.0


class TestTelemetrySession:
    def test_no_telemetry_is_disabled_everywhere(self):
        assert not NO_TELEMETRY.enabled
        assert NO_TELEMETRY.tracer.span("x") is NULL_SPAN
        NO_TELEMETRY.metrics.counter("c").add()
        assert len(NO_TELEMETRY.metrics) == 0

    def test_clear_keeps_session_reusable(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("a"):
            pass
        telemetry.metrics.counter("c").add()
        telemetry.clear()
        assert telemetry.tracer.spans == []
        assert len(telemetry.metrics) == 0
        assert telemetry.enabled


class TestSimulatorClampPolicy:
    """Satellite: the documented ``schedule_at`` past-time clamp."""

    def test_past_time_runs_now_and_counts(self):
        telemetry = Telemetry()
        sim = Simulator(telemetry)
        fired = []
        sim.schedule(
            5.0,
            lambda: sim.schedule_at(1.0, lambda: fired.append(sim.now)),
        )
        sim.run()
        assert fired == [5.0]  # clamped to "now", not silently dropped
        assert sim.clamped_schedules == 1
        assert telemetry.metrics.get("sim.schedule_at.clamped").value == 1

    def test_clamp_counted_without_telemetry(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule_at(0.5, lambda: None))
        sim.run()
        assert sim.clamped_schedules == 1

    def test_future_times_never_clamp(self):
        telemetry = Telemetry()
        sim = Simulator(telemetry)
        sim.schedule_at(3.0, lambda: None)
        sim.schedule_at(0.0, lambda: None)  # exactly now: not a clamp
        sim.run()
        assert sim.clamped_schedules == 0
        # Registered eagerly at construction, but never incremented.
        assert telemetry.metrics.get("sim.schedule_at.clamped").value == 0

    def test_clamped_callback_runs_after_existing_same_instant_events(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: order.append("late")))
        sim.schedule(5.0, lambda: order.append("on-time"))
        sim.run()
        assert order == ["on-time", "late"]
