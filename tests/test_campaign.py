"""Queueing model, knee location, and saturation campaigns."""

import pytest

from repro.serving import (
    AdmissionConfig,
    CampaignConfig,
    ClusterQueueingModel,
    ShardLoadModel,
    locate_knee,
    model_from_policy,
    pool_from_corpus,
    run_campaign,
    zipf_weights,
)
from repro.serving.campaign import GRID_FRACTIONS


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        weights = zipf_weights(20, 0.9)
        assert weights.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)


class TestLocateKnee:
    def test_interpolates_threshold_crossing(self):
        offered = [100.0, 200.0, 300.0]
        goodput = [100.0, 200.0, 240.0]  # ratios 1.0, 1.0, 0.8
        knee = locate_knee(offered, goodput, threshold=0.9)
        assert knee.saturated
        assert 200.0 < knee.knee_qps < 300.0
        # ratio drops 1.0 -> 0.8 between 200 and 300; 0.9 is halfway.
        assert knee.knee_qps == pytest.approx(250.0)

    def test_never_crossing_returns_top_unsaturated(self):
        knee = locate_knee([10.0, 20.0], [10.0, 19.9], threshold=0.9)
        assert not knee.saturated
        assert knee.knee_qps == 20.0

    def test_first_point_already_saturated(self):
        knee = locate_knee([10.0, 20.0], [5.0, 6.0], threshold=0.9)
        assert knee.saturated
        assert knee.knee_qps == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            locate_knee([], [])
        with pytest.raises(ValueError):
            locate_knee([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            locate_knee([1.0], [1.0], threshold=0.0)


class TestQueueingModel:
    def shard(self, sid, prob, mean, m2=None):
        return ShardLoadModel(
            shard_id=sid,
            selection_prob=prob,
            mean_service_ms=mean,
            second_moment_ms2=m2 if m2 is not None else mean * mean,
        )

    def test_saturation_is_bottleneck_capacity(self):
        model = ClusterQueueingModel(
            shards=(self.shard(0, 1.0, 2.0), self.shard(1, 0.5, 2.0)),
            overhead_ms=0.1,
        )
        # Shard 0: every query, 2 ms each -> 500 qps; shard 1 only half.
        assert model.bottleneck.shard_id == 0
        assert model.saturation_qps() == pytest.approx(500.0)

    def test_utilization_scales_linearly(self):
        model = ClusterQueueingModel(
            shards=(self.shard(0, 1.0, 2.0),), overhead_ms=0.0
        )
        assert model.utilization(250.0)[0] == pytest.approx(0.5)
        assert model.utilization(500.0)[0] == pytest.approx(1.0)

    def test_pk_wait_deterministic_service(self):
        # M/D/1: W = rho * S / (2 (1 - rho)); rho=0.5, S=2 -> W=1.
        model = ClusterQueueingModel(
            shards=(self.shard(0, 1.0, 2.0, m2=4.0),), overhead_ms=0.0
        )
        assert model.mean_wait_ms(250.0, 0) == pytest.approx(1.0)
        assert model.mean_wait_ms(500.0, 0) == float("inf")

    def test_mean_latency_adds_overhead_and_diverges(self):
        model = ClusterQueueingModel(
            shards=(self.shard(0, 1.0, 2.0, m2=4.0),), overhead_ms=0.5
        )
        assert model.mean_latency_ms(250.0) == pytest.approx(0.5 + 1.0 + 2.0)
        assert model.mean_latency_ms(600.0) == float("inf")

    def test_model_from_exhaustive_policy(self, unit_testbed):
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=30)
        weights = zipf_weights(len(pool), 0.9)
        model = model_from_policy(
            unit_testbed.cluster,
            pool,
            weights.tolist(),
            unit_testbed.make_policy("exhaustive"),
        )
        # Exhaustive selects every shard for every query.
        assert all(
            s.selection_prob == pytest.approx(1.0) for s in model.shards
        )
        assert all(s.mean_service_ms > 0 for s in model.shards)
        assert all(
            s.second_moment_ms2 >= s.mean_service_ms**2 - 1e-9
            for s in model.shards
        )
        assert model.overhead_ms >= 2 * unit_testbed.cluster.network.delay_ms()
        assert 0 < model.saturation_qps() < float("inf")

    def test_model_from_policy_validates_weights(self, unit_testbed):
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=5)
        with pytest.raises(ValueError):
            model_from_policy(
                unit_testbed.cluster, pool, [1.0],
                unit_testbed.make_policy("exhaustive"),
            )
        with pytest.raises(ValueError):
            model_from_policy(
                unit_testbed.cluster, pool, [0.0] * len(pool),
                unit_testbed.make_policy("exhaustive"),
            )


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(arrival="fractal")
        with pytest.raises(ValueError):
            CampaignConfig(queries_per_point=0)
        for rate in (-5.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="grid rates must be positive"):
                CampaignConfig(qps_grid=(rate,))
        with pytest.raises(ValueError):
            CampaignConfig(cache_capacity=-1)


class TestRunCampaign:
    def test_sweep_locates_knee_near_model(self, unit_testbed):
        """The default grid straddles the prediction, saturates and agrees.

        The tolerance here is the same gate CI enforces on the full
        benchmark; at 400 queries/point the knee lands well inside it.
        """
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=40)
        result = run_campaign(
            unit_testbed.cluster,
            lambda: unit_testbed.make_policy("exhaustive"),
            pool,
            CampaignConfig(queries_per_point=400, seed=3),
        )
        assert len(result.points) == len(GRID_FRACTIONS)
        assert result.total_queries == 400 * len(GRID_FRACTIONS)
        assert result.knee.saturated
        assert result.knee_within(0.25)
        # Below the knee the cluster keeps up; far above it cannot.
        assert result.points[0].goodput_ratio > 0.95
        assert result.points[-1].goodput_ratio < 0.95
        # Latency and power move the right way along the sweep.
        assert (
            result.points[-1].mean_latency_ms > result.points[0].mean_latency_ms
        )
        assert (
            result.points[-1].max_core_utilization
            >= result.points[0].max_core_utilization
        )

    def test_deadline_shedding_sets_no_knee(self, unit_testbed):
        """An SLO below every service time sheds each query at any load.

        The point's goodput is 0 on an idle cluster; that shortfall is the
        deadline rule's, not saturation, so the sweep measures no knee.
        """
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=20)
        result = run_campaign(
            unit_testbed.cluster,
            lambda: unit_testbed.make_policy("exhaustive"),
            pool,
            CampaignConfig(
                qps_grid=(50.0,), queries_per_point=20,
                admission=AdmissionConfig(deadline_slo_ms=0.001),
            ),
        )
        (point,) = result.points
        assert point.completed == 0 and point.shed == 20
        assert point.max_core_utilization == 0.0
        assert not result.knee.saturated
        assert result.knee.knee_qps == point.realized_qps

    def test_backlog_deadline_shedding_sets_the_knee(self, unit_testbed):
        """Above saturation a meetable SLO sheds what the queues cannot
        serve in time: that shortfall is the knee, as the queue cap's is."""
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=40)
        result = run_campaign(
            unit_testbed.cluster,
            lambda: unit_testbed.make_policy("exhaustive"),
            pool,
            CampaignConfig(
                qps_grid=(50.0, 250.0), queries_per_point=400,
                admission=AdmissionConfig(deadline_slo_ms=40.0),
            ),
        )
        low, high = result.points
        assert low.goodput_ratio > 0.95 > high.goodput_ratio
        assert high.shed > 0
        assert result.knee.saturated
        assert low.realized_qps < result.knee.knee_qps < high.realized_qps

    def test_explicit_grid_and_snapshot(self, unit_testbed):
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=20)
        result = run_campaign(
            unit_testbed.cluster,
            lambda: unit_testbed.make_policy("exhaustive"),
            pool,
            CampaignConfig(qps_grid=(60.0, 30.0), queries_per_point=100),
        )
        # Grid is swept sorted ascending regardless of input order.
        assert [p.offered_qps for p in result.points] == [30.0, 60.0]
        snap = result.snapshot()
        assert snap["policy"] == "exhaustive"
        assert len(snap["points"]) == 2
        assert snap["model"]["saturation_qps"] == result.predicted_knee_qps
        for point in snap["points"]:
            assert point["completed"] + point["shed"] == point["offered_queries"]

    def test_points_replay_deterministically(self, unit_testbed):
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=20)
        config = CampaignConfig(qps_grid=(50.0,), queries_per_point=120, seed=9)

        def sweep():
            return run_campaign(
                unit_testbed.cluster,
                lambda: unit_testbed.make_policy("exhaustive"),
                pool,
                config,
            )

        first, second = sweep(), sweep()
        assert first.points[0].snapshot() == second.points[0].snapshot()

    def test_on_point_callback_sees_every_point(self, unit_testbed):
        pool = pool_from_corpus(unit_testbed.corpus, n_distinct=20)
        seen = []
        run_campaign(
            unit_testbed.cluster,
            lambda: unit_testbed.make_policy("exhaustive"),
            pool,
            CampaignConfig(qps_grid=(40.0, 80.0), queries_per_point=80),
            on_point=seen.append,
        )
        assert [p.offered_qps for p in seen] == [40.0, 80.0]
