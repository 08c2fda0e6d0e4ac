"""Package power model and energy metering.

Stands in for the Intel RAPL counters the paper reads.  Each ISN core draws
static (leakage) power whenever the package is on, plus a cubic-in-frequency
dynamic term while actively processing a query — the standard CMOS
``P = P_static + c * f^3`` approximation that underpins all the DVFS work
the paper cites (Pegasus, TimeTrader, Rubik).

Calibration anchors (paper Fig. 14, 16 ISNs on one package):
  * idle package power 14.53 W  -> uncore + 16 cores static
  * exhaustive search ~36 W      -> cores at the default frequency, busy at
    the evaluation trace's utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PowerModel:
    """Per-core and package power in watts."""

    uncore_idle_w: float = 8.0
    core_static_w: float = 0.41
    dynamic_coeff: float = 0.29  # watts per GHz^3 while busy

    def core_power_w(self, freq_ghz: float, busy: bool) -> float:
        """Instantaneous draw of one core."""
        if freq_ghz <= 0:
            raise ValueError("frequency must be positive")
        dynamic = self.dynamic_coeff * freq_ghz**3 if busy else 0.0
        return self.core_static_w + dynamic

    def idle_package_w(self, n_cores: int) -> float:
        """Package draw with every core idle (the paper's 14.53 W anchor)."""
        return self.uncore_idle_w + n_cores * self.core_static_w


@dataclass
class EnergyMeter:
    """Accumulates one core's energy over simulated time.

    The ISN calls :meth:`add_busy` for each service interval; idle energy
    is derived at report time from total elapsed time minus busy time, so
    the meter never needs to see idle intervals explicitly.
    """

    model: PowerModel
    busy_ms: float = 0.0
    busy_energy_mj: float = 0.0  # millijoules (W * ms)
    # Busy core watts per frequency: the model is frozen, so each level's
    # draw is computed once per meter instead of once per job.
    _busy_w: dict[float, float] = field(default_factory=dict, repr=False)

    def add_busy(self, duration_ms: float, freq_ghz: float) -> None:
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        busy_w = self._busy_w.get(freq_ghz)
        if busy_w is None:
            busy_w = self.model.core_power_w(freq_ghz, busy=True)
            self._busy_w[freq_ghz] = busy_w
        self.busy_ms += duration_ms
        self.busy_energy_mj += duration_ms * busy_w

    def total_energy_mj(self, elapsed_ms: float) -> float:
        """Busy energy plus static energy over the full elapsed window."""
        if elapsed_ms < self.busy_ms - 1e-6:
            raise ValueError("elapsed time shorter than recorded busy time")
        idle_ms = max(elapsed_ms - self.busy_ms, 0.0)
        idle_energy = idle_ms * self.model.core_power_w(freq_ghz=1.0, busy=False)
        return self.busy_energy_mj + idle_energy

    def utilization(self, elapsed_ms: float) -> float:
        if elapsed_ms <= 0:
            return 0.0
        return min(self.busy_ms / elapsed_ms, 1.0)


@dataclass(frozen=True)
class PowerReport:
    """Cluster-wide power summary for one simulated run."""

    elapsed_ms: float
    package_energy_mj: float
    idle_package_w: float
    per_core_utilization: tuple[float, ...]

    @property
    def average_power_w(self) -> float:
        """Mean package watts over the window (what Fig. 14 plots)."""
        if self.elapsed_ms <= 0:
            return self.idle_package_w
        return self.package_energy_mj / self.elapsed_ms


def package_report(
    meters: list[EnergyMeter], model: PowerModel, elapsed_ms: float
) -> PowerReport:
    """Aggregate per-core meters into a package-level report."""
    core_energy = sum(meter.total_energy_mj(elapsed_ms) for meter in meters)
    package = core_energy + elapsed_ms * model.uncore_idle_w
    return PowerReport(
        elapsed_ms=elapsed_ms,
        package_energy_mj=package,
        idle_package_w=model.idle_package_w(len(meters)),
        per_core_utilization=tuple(m.utilization(elapsed_ms) for m in meters),
    )
