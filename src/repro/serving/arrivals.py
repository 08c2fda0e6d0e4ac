"""Seeded open-loop arrival processes: Poisson and modulated Poisson.

Each process is a pure function of its seed: ``times()`` returns a fresh
infinite iterator of absolute arrival instants (seconds) and always
replays the identical sequence — the determinism contract every other
layer of the repo holds.  Iterators are lazy so a million-query
campaign never materializes its arrival vector.

Truncation (the query count) is the consumer's job — see
:class:`repro.serving.stream.QueryStream`.

The non-homogeneous process uses Lewis & Shedler thinning: candidates are
drawn at the peak rate and accepted with probability ``rate(t)/peak``, so
any bounded deterministic :class:`RateProfile` (diurnal sinusoid,
bursts) modulates an exact Poisson process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

import numpy as np


class ArrivalProcess(Protocol):
    """An infinite, seeded stream of absolute arrival instants (seconds)."""

    name: str

    def times(self) -> Iterator[float]:
        """A fresh iterator over arrival instants; replays identically."""
        ...

    def mean_rate_qps(self) -> float:
        """Long-run average arrival rate (for load accounting / sizing)."""
        ...


@dataclass(frozen=True)
class PoissonProcess:
    """Homogeneous Poisson arrivals at ``rate_qps`` (exponential gaps)."""

    rate_qps: float
    seed: int = 0
    name = "poisson"

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("arrival rate must be positive")

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / self.rate_qps
        t = 0.0
        while True:
            t += float(rng.exponential(scale))
            yield t

    def mean_rate_qps(self) -> float:
        return self.rate_qps


@runtime_checkable
class RateProfile(Protocol):
    """A deterministic rate multiplier over time for modulated arrivals."""

    name: str

    def factor(self, t_s: float) -> float:
        """Multiplier applied to the base rate at time ``t_s`` (>= 0)."""
        ...

    @property
    def peak_factor(self) -> float:
        """Upper bound of ``factor`` (the thinning envelope)."""
        ...

    @property
    def mean_factor(self) -> float:
        """Long-run average of ``factor`` (over one period/cycle)."""
        ...


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal day/night swing: trough at t=0, peak half a period later.

    ``floor`` is the trough rate as a fraction of the peak (0.25 means
    night traffic is a quarter of the daily maximum).
    """

    period_s: float = 86400.0
    floor: float = 0.25
    name = "diurnal"

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")

    def factor(self, t_s: float) -> float:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t_s / self.period_s))
        return self.floor + (1.0 - self.floor) * swing

    @property
    def peak_factor(self) -> float:
        return 1.0

    @property
    def mean_factor(self) -> float:
        return self.floor + (1.0 - self.floor) * 0.5


@dataclass(frozen=True)
class BurstProfile:
    """Square-wave flash crowds: ``multiplier``x for ``burst_s`` every ``every_s``."""

    every_s: float
    burst_s: float
    multiplier: float
    name = "burst"

    def __post_init__(self) -> None:
        if self.every_s <= 0 or not 0 < self.burst_s <= self.every_s:
            raise ValueError("need 0 < burst_s <= every_s")
        if self.multiplier < 1.0:
            raise ValueError("burst multiplier must be >= 1")

    def factor(self, t_s: float) -> float:
        return self.multiplier if (t_s % self.every_s) < self.burst_s else 1.0

    @property
    def peak_factor(self) -> float:
        return self.multiplier

    @property
    def mean_factor(self) -> float:
        burst = self.multiplier * self.burst_s
        return (burst + (self.every_s - self.burst_s)) / self.every_s


@dataclass(frozen=True)
class ModulatedPoissonProcess:
    """Non-homogeneous Poisson arrivals: ``base_rate_qps * profile.factor(t)``.

    Lewis & Shedler thinning against the peak-rate envelope; the candidate
    and acceptance draws interleave in a fixed order, so the sequence is a
    pure function of the seed.
    """

    base_rate_qps: float
    profile: RateProfile
    seed: int = 0
    name = "modulated"

    def __post_init__(self) -> None:
        if self.base_rate_qps <= 0:
            raise ValueError("base rate must be positive")
        if self.profile.peak_factor <= 0:
            raise ValueError("profile peak factor must be positive")

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        peak = self.base_rate_qps * self.profile.peak_factor
        scale = 1.0 / peak
        t = 0.0
        while True:
            t += float(rng.exponential(scale))
            if float(rng.random()) * peak <= self.base_rate_qps * self.profile.factor(t):
                yield t

    def mean_rate_qps(self) -> float:
        return self.base_rate_qps * self.profile.mean_factor


#: The modulated kinds' rate profiles: a day/night swing every two
#: minutes of simulated time, and 3x flash crowds for 5 s every 30 s.
PROFILES: dict[str, RateProfile] = {
    "diurnal": DiurnalProfile(period_s=120.0),
    "burst": BurstProfile(every_s=30.0, burst_s=5.0, multiplier=3.0),
}

#: The one list of kinds ``make_arrivals``, ``repro serve --arrival`` and
#: :class:`~repro.serving.campaign.CampaignConfig` accept.
ARRIVAL_KINDS = ("poisson", *PROFILES)


def make_arrivals(kind: str, rate_qps: float, seed: int = 0) -> ArrivalProcess:
    """CLI/campaign factory: an arrival process averaging ``rate_qps``.

    The modulated kinds rescale the base rate so the *mean* modulated
    rate matches the target.
    """
    if kind == "poisson":
        return PoissonProcess(rate_qps, seed=seed)
    if kind not in PROFILES:
        raise ValueError(f"unknown arrival process: {kind!r}")
    profile = PROFILES[kind]
    return ModulatedPoissonProcess(rate_qps / profile.mean_factor, profile, seed=seed)
