"""Serving plane: closed-loop bit-identity, admission, stats, memory."""

import tracemalloc

import pytest

from repro.cluster.cache import ResultCache
from repro.cluster.engine import RunResult
from repro.cluster.types import Decision, QueryRecord, ShardOutcome
from repro.retrieval.result import SearchResult
from repro.retrieval.query import Query
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    PoissonProcess,
    QueryStream,
    ServingPlane,
    ServingStats,
    pool_from_corpus,
)
from repro.serving.admission import EWMA_ALPHA, REJECT_MS, SERVICE_ESTIMATE_MS


def run_fingerprint(run: RunResult) -> str:
    lines = [run.policy_name, repr(run.power)]
    for record in run.records:
        lines.append(
            f"{record.query.query_id}|{record.latency_ms!r}|"
            f"{record.result.fingerprint()}"
        )
    return "\n".join(lines)


def open_loop_stream(testbed, rate_qps=400.0, n=300, seed=0):
    pool = pool_from_corpus(testbed.corpus, n_distinct=40, seed=seed + 17)
    return QueryStream(
        pool,
        PoissonProcess(rate_qps, seed=seed),
        seed=seed + 1,
        max_queries=n,
    )


class TestClosedLoopBitIdentity:
    """run_trace must be the serving plane's degenerate configuration."""

    @pytest.mark.parametrize("policy_name", ["exhaustive", "cottage"])
    def test_serving_plane_matches_run_trace(self, unit_testbed, policy_name):
        trace = unit_testbed.wikipedia_trace
        baseline = unit_testbed.cluster.run_trace(
            trace, unit_testbed.make_policy(policy_name)
        )
        replayed = ServingPlane(unit_testbed.cluster).run(
            trace, unit_testbed.make_policy(policy_name)
        )
        assert run_fingerprint(baseline) == run_fingerprint(replayed)

    def test_closed_loop_has_no_serving_sink_by_default(self, unit_testbed):
        run = unit_testbed.cluster.run_trace(
            unit_testbed.wikipedia_trace, unit_testbed.make_policy("exhaustive")
        )
        assert run.serving is None
        assert run.records


class TestOpenLoopServing:
    def test_serve_offers_every_query(self, unit_testbed):
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, n=200),
            unit_testbed.make_policy("exhaustive"),
        )
        assert run.offered_queries == 200
        assert run.serving is not None
        assert run.serving.offered == 200
        assert run.serving.completed + run.serving.shed == 200
        assert run.elapsed_ms >= run.serving.last_arrival_ms
        assert not run.records  # streaming sink, no retention

    def test_serve_retain_records_keeps_the_list(self, unit_testbed):
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, n=50),
            unit_testbed.make_policy("exhaustive"),
            retain_records=True,
        )
        assert run.serving is None
        assert len(run.records) == 50

    def test_streaming_drive_keeps_no_per_query_memory(self, unit_testbed):
        """What bounds a million-query drive: without ``retain_records``
        the traced peak is the in-flight working set, not O(queries)."""

        def peak_mib(n, retain_records):
            tracemalloc.start()
            try:
                run = unit_testbed.cluster.serve(
                    open_loop_stream(unit_testbed, rate_qps=200.0, n=n),
                    unit_testbed.make_policy("cottage"),
                    admission=AdmissionController(
                        AdmissionConfig(max_in_flight=512)
                    ),
                    retain_records=retain_records,
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert run.admitted_queries == n  # below the knee: nothing shed
            return peak / 2**20

        peak_mib(400, False)  # fill the retrieval and prediction memos once
        streaming = peak_mib(8000, False)
        retained = peak_mib(8000, True)
        assert streaming < 4.0
        assert streaming < retained / 4

    def test_admission_sheds_under_overload(self, unit_testbed):
        admission = AdmissionController(AdmissionConfig(max_in_flight=2))
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, rate_qps=3000.0, n=300),
            unit_testbed.make_policy("exhaustive"),
            admission=admission,
        )
        assert run.shed_queries > 0
        assert run.shed_queue_depth == run.shed_queries
        assert run.admitted_queries + run.shed_queries == run.offered_queries
        assert run.completed_queries == run.offered_queries - run.shed_queries
        assert admission.in_flight == 0  # every admitted query finalized

    def test_shed_records_are_flagged_and_empty(self, unit_testbed):
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, rate_qps=3000.0, n=200),
            unit_testbed.make_policy("exhaustive"),
            admission=AdmissionController(AdmissionConfig(max_in_flight=2)),
            retain_records=True,
        )
        shed = [r for r in run.records if r.shed]
        assert shed
        for record in shed:
            assert not record.result.hits
            assert record.n_selected == 0
            assert record.latency_ms == REJECT_MS

    def test_result_cache_telemetry_on_run(self, unit_testbed):
        cache = ResultCache(capacity=64)
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, rate_qps=50.0, n=300),
            unit_testbed.make_policy("exhaustive"),
            cache=cache,
        )
        # 300 Zipf draws over 40 distinct queries must repeat.
        assert run.result_cache_hits > 0
        assert run.result_cache_hits + run.result_cache_misses == 300
        assert run.result_cache_hit_rate == pytest.approx(
            run.result_cache_hits / 300.0
        )
        assert run.serving is not None
        assert run.serving.from_cache == run.result_cache_hits

    def test_deadline_shedding(self, unit_testbed):
        admission = AdmissionController(
            AdmissionConfig(deadline_slo_ms=SERVICE_ESTIMATE_MS / 2)
        )
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, rate_qps=2000.0, n=200),
            unit_testbed.make_policy("exhaustive"),
            admission=admission,
        )
        # The seeded estimate alone busts the SLO, and with nothing admitted
        # it never adapts: everything sheds.
        assert run.shed_deadline == 200
        assert run.completed_queries == 0

    def test_goodput_accounting(self, unit_testbed):
        run = unit_testbed.cluster.serve(
            open_loop_stream(unit_testbed, rate_qps=100.0, n=150),
            unit_testbed.make_policy("exhaustive"),
        )
        assert run.goodput_qps() > 0.0
        assert run.goodput_qps() == pytest.approx(
            run.completed_queries / (run.elapsed_ms / 1000.0)
        )


def record(qid, arrival, latency, *, shed=False, from_cache=False):
    return QueryRecord(
        query=Query(query_id=qid, terms=("t001",), text="t001"),
        arrival_ms=arrival,
        latency_ms=latency,
        result=SearchResult(),
        decision=Decision(shard_ids=() if shed else (0,)),
        shed=shed,
        from_cache=from_cache,
    )


class TestServingStats:
    def test_counters_and_percentiles(self):
        stats = ServingStats()
        for i in range(100):
            stats.observe(record(i, arrival=float(i), latency=float(i + 1)))
        stats.observe(record(100, arrival=200.0, latency=0.05, shed=True))
        assert stats.completed == 100
        assert stats.shed == 1
        assert stats.offered == 101
        assert stats.last_arrival_ms == 200.0  # shed arrivals count
        assert stats.mean_latency_ms == pytest.approx(50.5)
        assert stats.max_latency_ms == 100.0
        assert 40.0 < stats.percentile_ms(50) < 62.0
        snap = stats.snapshot()
        assert snap["completed"] == 100 and snap["shed"] == 1

    def test_shed_records_do_not_pollute_latency(self):
        stats = ServingStats()
        stats.observe(record(0, arrival=0.0, latency=10.0))
        stats.observe(record(1, arrival=1.0, latency=0.05, shed=True))
        assert stats.mean_latency_ms == 10.0
        assert stats.max_latency_ms == 10.0

    def test_from_cache_counter(self):
        stats = ServingStats()
        stats.observe(record(0, arrival=0.0, latency=1.0, from_cache=True))
        assert stats.from_cache == 1


class TestAdmissionController:
    def view(self, unit_testbed, backlog=0.0):
        from repro.cluster.types import ClusterView

        n = unit_testbed.cluster.n_shards
        return ClusterView(
            now_ms=0.0,
            n_shards=n,
            default_freq_ghz=unit_testbed.cluster.freq_scale.default_ghz,
            max_freq_ghz=unit_testbed.cluster.freq_scale.max_ghz,
            queued_predicted_ms=tuple(backlog for _ in range(n)),
        )

    def query(self, qid=0):
        return Query(query_id=qid, terms=("t001",), text="t001")

    def test_max_in_flight_gate(self, unit_testbed):
        controller = AdmissionController(AdmissionConfig(max_in_flight=1))
        view = self.view(unit_testbed)
        assert controller.admit(self.query(0), view, 0.0) is None
        controller.on_admit(0, 0.0)
        assert controller.admit(self.query(1), view, 1.0) == "queue_depth"
        controller.on_finalize(record(0, arrival=0.0, latency=2.0))
        assert controller.admit(self.query(2), view, 3.0) is None

    def test_in_flight_tracks_admitted_population(self):
        controller = AdmissionController()
        controller.on_admit(1, 0.0)
        controller.on_admit(2, 1.0)
        assert controller.in_flight == 2
        controller.on_finalize(record(2, arrival=1.0, latency=3.0))
        assert controller.in_flight == 1

    def test_finalize_of_unadmitted_query_is_noop(self):
        # Result-cache hits are finalized without ever being admitted.
        controller = AdmissionController()
        controller.on_finalize(record(99, arrival=0.0, latency=1.0, from_cache=True))
        assert controller.in_flight == 0

    def test_deadline_gate_uses_backlog_plus_estimate(self, unit_testbed):
        slo = SERVICE_ESTIMATE_MS + 5.0
        controller = AdmissionController(AdmissionConfig(deadline_slo_ms=slo))
        # Backlog + seeded estimate exactly at the SLO is admitted.
        assert (
            controller.admit(self.query(), self.view(unit_testbed, 5.0), 0.0)
            is None
        )
        assert (
            controller.admit(self.query(), self.view(unit_testbed, 6.0), 0.0)
            == "deadline"
        )
        # A backlog caused that shed; an SLO below the estimate itself
        # sheds on an idle cluster too, and only that shed is counted.
        assert controller.shed_at_any_load == 0
        tight = AdmissionController(AdmissionConfig(deadline_slo_ms=SERVICE_ESTIMATE_MS / 2))
        assert tight.admit(self.query(), self.view(unit_testbed), 0.0) == "deadline"
        assert tight.shed_at_any_load == 1

    def test_ewma_adapts_from_counted_service(self, unit_testbed):
        controller = AdmissionController(AdmissionConfig(deadline_slo_ms=100.0))
        assert controller.service_estimate_ms == SERVICE_ESTIMATE_MS
        controller.on_admit(0, 0.0)
        rec = record(0, arrival=0.0, latency=40.0)
        rec.outcomes.append(
            ShardOutcome(shard_id=0, service_ms=25.0, counted=True)
        )
        rec.outcomes.append(  # not merged: ignored by the estimate
            ShardOutcome(shard_id=1, service_ms=90.0, counted=False)
        )
        controller.on_finalize(rec)
        assert controller.service_estimate_ms == pytest.approx(
            SERVICE_ESTIMATE_MS + EWMA_ALPHA * (25.0 - SERVICE_ESTIMATE_MS)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_in_flight=0)
        for slo in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                AdmissionConfig(deadline_slo_ms=slo)
