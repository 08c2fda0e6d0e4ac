"""Unit tests for the CPU/DVFS, power and network models."""

import pytest

from repro.cluster import (
    CostModel,
    EnergyMeter,
    FrequencyScale,
    NetworkModel,
    PowerModel,
    equivalent_latency_ms,
    package_report,
    scaled_service_ms,
)
from repro.retrieval.result import CostStats


class TestFrequencyScale:
    def test_defaults_match_paper_range(self):
        scale = FrequencyScale()
        assert scale.min_ghz == 1.2
        assert scale.max_ghz == 2.7
        assert scale.default_ghz == 2.1

    def test_clamp_rounds_up(self):
        scale = FrequencyScale()
        assert scale.clamp(1.3) == 1.5
        assert scale.clamp(2.1) == 2.1
        assert scale.clamp(99.0) == 2.7

    def test_boost_ratio(self):
        assert FrequencyScale().boost_ratio == pytest.approx(2.7 / 2.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyScale(levels_ghz=())
        with pytest.raises(ValueError):
            FrequencyScale(levels_ghz=(2.0, 1.0), default_ghz=2.0)
        with pytest.raises(ValueError):
            FrequencyScale(levels_ghz=(1.0, 2.0), default_ghz=1.5)
        # The event loop divides cycles by a ladder level per job.
        with pytest.raises(ValueError):
            FrequencyScale(levels_ghz=(0.0, 2.0), default_ghz=2.0)
        with pytest.raises(ValueError):
            FrequencyScale(levels_ghz=(1.0, float("inf")), default_ghz=1.0)


class TestCostModel:
    def test_service_scales_inverse_with_frequency(self):
        model = CostModel()
        cost = CostStats(docs_evaluated=100, postings_scored=150)
        slow = model.service_ms(cost, 1.2)
        fast = model.service_ms(cost, 2.4)
        assert slow == pytest.approx(2 * fast)

    def test_more_work_longer_service(self):
        model = CostModel()
        small = CostStats(docs_evaluated=10, postings_scored=10)
        large = CostStats(docs_evaluated=1000, postings_scored=1500)
        assert model.service_ms(large, 2.1) > model.service_ms(small, 2.1)

    def test_fixed_floor(self):
        model = CostModel()
        assert model.service_ms(CostStats(), 2.1) == pytest.approx(
            model.fixed_cycles / 2.1e6
        )

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            CostModel().service_ms(CostStats(), 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["cycles_per_doc", "cycles_per_posting", "cycles_per_skip", "fixed_cycles"],
    )
    def test_cycle_constants_must_be_positive_and_finite(self, field, bad):
        with pytest.raises(ValueError, match=field):
            CostModel(**{field: bad})


class TestEquations:
    def test_eq1_scaled_service(self):
        # S_i = S_pred * f_default / f  (paper Eq. 1)
        assert scaled_service_ms(10.0, 2.1, 2.7) == pytest.approx(10.0 * 2.1 / 2.7)
        assert scaled_service_ms(10.0, 2.1, 2.1) == 10.0

    def test_eq2_equivalent_latency(self):
        # Queued work runs at its own (default) frequency; only the new
        # request's service scales (per-job DVFS — see the docstring for
        # why this adapts the paper's Eq. 2).
        value = equivalent_latency_ms(30.0, 10.0, 2.1, 2.1)
        assert value == pytest.approx(40.0)
        boosted = equivalent_latency_ms(30.0, 10.0, 2.1, 2.7)
        assert boosted == pytest.approx(30.0 + 10.0 * 2.1 / 2.7)

    def test_eq2_boost_never_slows_queue_term(self):
        # Boosting helps, but only on the request's own share.
        base = equivalent_latency_ms(50.0, 10.0, 2.1, 2.1)
        boosted = equivalent_latency_ms(50.0, 10.0, 2.1, 2.7)
        assert 50.0 < boosted < base

    def test_eq1_validation(self):
        with pytest.raises(ValueError):
            scaled_service_ms(1.0, 2.1, 0.0)


class TestPowerModel:
    def test_idle_anchor(self):
        # Default calibration reproduces the paper's 14.53 W idle package.
        model = PowerModel()
        assert model.idle_package_w(16) == pytest.approx(14.53, abs=0.2)

    def test_busy_power_cubic(self):
        model = PowerModel()
        low = model.core_power_w(1.2, busy=True)
        high = model.core_power_w(2.4, busy=True)
        dynamic_low = low - model.core_static_w
        dynamic_high = high - model.core_static_w
        assert dynamic_high == pytest.approx(8 * dynamic_low)

    def test_idle_core_has_no_dynamic(self):
        model = PowerModel()
        assert model.core_power_w(2.7, busy=False) == model.core_static_w

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel().core_power_w(0.0, busy=True)


class TestEnergyMeter:
    def test_busy_energy_accumulates(self):
        model = PowerModel()
        meter = EnergyMeter(model)
        meter.add_busy(100.0, 2.1)
        assert meter.busy_ms == 100.0
        assert meter.busy_energy_mj == pytest.approx(
            100.0 * model.core_power_w(2.1, busy=True)
        )

    def test_total_energy_includes_idle(self):
        model = PowerModel()
        meter = EnergyMeter(model)
        meter.add_busy(100.0, 2.1)
        total = meter.total_energy_mj(1000.0)
        assert total > meter.busy_energy_mj
        assert total == pytest.approx(
            meter.busy_energy_mj + 900.0 * model.core_static_w
        )

    def test_utilization(self):
        meter = EnergyMeter(PowerModel())
        meter.add_busy(250.0, 2.1)
        assert meter.utilization(1000.0) == 0.25

    def test_busy_energy_prices_each_frequency(self):
        model = PowerModel()
        meter = EnergyMeter(model)
        meter.add_busy(10.0, 2.7)
        meter.add_busy(20.0, 2.1)
        meter.add_busy(5.0, 2.7)
        assert meter.busy_ms == 35.0
        assert meter.busy_energy_mj == (
            10.0 * model.core_power_w(2.7, busy=True)
            + 20.0 * model.core_power_w(2.1, busy=True)
            + 5.0 * model.core_power_w(2.7, busy=True)
        )

    def test_elapsed_shorter_than_busy_rejected(self):
        meter = EnergyMeter(PowerModel())
        meter.add_busy(100.0, 2.1)
        with pytest.raises(ValueError):
            meter.total_energy_mj(50.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EnergyMeter(PowerModel()).add_busy(-1.0, 2.1)


class TestPackageReport:
    def test_average_power_bounds(self):
        model = PowerModel()
        meters = [EnergyMeter(model) for _ in range(4)]
        meters[0].add_busy(500.0, 2.1)
        report = package_report(meters, model, elapsed_ms=1000.0)
        assert report.average_power_w > report.idle_package_w
        assert report.per_core_utilization == (0.5, 0.0, 0.0, 0.0)

    def test_all_idle_equals_floor(self):
        model = PowerModel()
        meters = [EnergyMeter(model) for _ in range(4)]
        report = package_report(meters, model, elapsed_ms=1000.0)
        assert report.average_power_w == pytest.approx(report.idle_package_w)


class TestNetworkModel:
    def test_delay_is_base_plus_transfer(self):
        net = NetworkModel(base_delay_ms=0.05, bandwidth_gbps=10.0)
        assert net.delay_ms(payload_bytes=1250) == pytest.approx(0.05 + 0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(base_delay_ms=-0.1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_gbps=0)
        with pytest.raises(ValueError):
            NetworkModel().delay_ms(-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_fields_rejected(self, bad):
        # nan < 0 is False: an unchecked NaN delay reaches Simulator.schedule.
        with pytest.raises(ValueError):
            NetworkModel(base_delay_ms=bad)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_gbps=bad)
