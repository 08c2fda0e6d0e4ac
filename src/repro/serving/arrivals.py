"""Seeded open-loop arrival processes: Poisson, MMPP, modulated Poisson.

Each process is a pure function of its seed: ``times()`` returns a fresh
infinite iterator of absolute arrival instants (seconds) and always
replays the identical sequence — the determinism contract every other
layer of the repo holds.  Iterators are lazy so a million-query
campaign never materializes its arrival vector.

Truncation (query count / duration) is the consumer's job — see
:class:`repro.serving.stream.QueryStream`.

The non-homogeneous process uses Lewis & Shedler thinning: candidates are
drawn at the peak rate and accepted with probability ``rate(t)/peak``, so
any bounded deterministic :class:`RateProfile` (diurnal sinusoid, bursts,
QPS sweep steps) modulates an exact Poisson process.
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


@dataclass(frozen=True)
class MMPPProcess:
    """Markov-modulated Poisson process (cyclic-state variant).

    The modulating chain visits ``rates_qps`` in order (0 -> 1 -> ... -> 0),
    dwelling an exponential time with mean ``dwells_s[i]`` in state *i*;
    while in state *i* arrivals are Poisson at ``rates_qps[i]``.  The
    classic two-state form (low rate / bursty rate) models flash crowds.

    At a state switch the in-progress inter-arrival draw is discarded and
    redrawn at the new rate — exactly the MMPP definition, since the
    exponential residual is memoryless.
    """

    rates_qps: tuple[float, ...]
    dwells_s: tuple[float, ...]
    seed: int = 0
    name = "mmpp"

    def __post_init__(self) -> None:
        if len(self.rates_qps) < 2:
            raise ValueError("MMPP needs at least two states")
        if len(self.dwells_s) != len(self.rates_qps):
            raise ValueError("one dwell time per rate state")
        if any(r < 0 for r in self.rates_qps) or not any(self.rates_qps):
            raise ValueError("rates must be >= 0 with at least one positive")
        if any(d <= 0 for d in self.dwells_s):
            raise ValueError("dwell times must be positive")

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        state = 0
        t = 0.0
        switch_at = float(rng.exponential(self.dwells_s[state]))
        while True:
            rate = self.rates_qps[state]
            if rate > 0:
                candidate = t + float(rng.exponential(1.0 / rate))
            else:
                candidate = math.inf  # silent state: idle until the switch
            if candidate < switch_at:
                t = candidate
                yield t
            else:
                t = switch_at
                state = (state + 1) % len(self.rates_qps)
                switch_at = t + float(rng.exponential(self.dwells_s[state]))

    def mean_rate_qps(self) -> float:
        # Stationary occupancy of the cyclic chain is proportional to the
        # mean dwell, so the long-run rate is the dwell-weighted mean.
        total_dwell = sum(self.dwells_s)
        weighted = sum(r * d for r, d in zip(self.rates_qps, self.dwells_s))
        return weighted / total_dwell


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
    """Sinusoidal day/night swing: trough at t=0+phase, peak half a period later.

    ``floor`` is the trough rate as a fraction of the peak (0.25 means
    night traffic is a quarter of the daily maximum).
    """

    period_s: float = 86400.0
    floor: float = 0.25
    phase_s: float = 0.0
    name = "diurnal"

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")

    def factor(self, t_s: float) -> float:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t_s + self.phase_s) / self.period_s))
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
class StepProfile:
    """Piecewise-constant QPS sweep schedule: ``(duration_s, factor)`` steps.

    The last step holds forever, so a truncating consumer (query count or
    duration cap) always sees a defined rate.
    """

    steps: tuple[tuple[float, float], ...]
    name = "step"

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("need at least one step")
        for duration, factor in self.steps:
            if duration <= 0 or factor < 0:
                raise ValueError("steps need positive duration, factor >= 0")
        if self.steps[-1][1] <= 0:
            raise ValueError("final (held) step factor must be positive")

    def factor(self, t_s: float) -> float:
        elapsed = 0.0
        for duration, factor in self.steps:
            elapsed += duration
            if t_s < elapsed:
                return factor
        return self.steps[-1][1]

    @property
    def peak_factor(self) -> float:
        return max(factor for _, factor in self.steps)

    @property
    def mean_factor(self) -> float:
        total = sum(duration for duration, _ in self.steps)
        weighted = sum(duration * factor for duration, factor in self.steps)
        return weighted / total


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


def make_arrivals(
    kind: str,
    rate_qps: float,
    seed: int = 0,
    *,
    mmpp_rate_factors: tuple[float, float] = (0.5, 2.0),
    mmpp_dwell_s: float = 5.0,
    diurnal_period_s: float = 120.0,
    burst_every_s: float = 30.0,
    burst_s: float = 5.0,
    burst_multiplier: float = 3.0,
) -> ArrivalProcess:
    """CLI/campaign factory: an arrival process averaging ``rate_qps``.

    ``mmpp`` splits the target rate over a low/high state pair scaled by
    ``mmpp_rate_factors`` (equal dwells, so the dwell-weighted mean stays
    ``rate_qps``); ``diurnal`` and ``burst`` rescale the base rate so the
    *mean* modulated rate matches the target.
    """
    if kind == "poisson":
        return PoissonProcess(rate_qps, seed=seed)
    if kind == "mmpp":
        low, high = mmpp_rate_factors
        if abs((low + high) / 2.0 - 1.0) > 1e-9:
            # Keep the requested mean: renormalize the factor pair.
            mean = (low + high) / 2.0
            low, high = low / mean, high / mean
        return MMPPProcess(
            rates_qps=(rate_qps * low, rate_qps * high),
            dwells_s=(mmpp_dwell_s, mmpp_dwell_s),
            seed=seed,
        )
    if kind == "diurnal":
        profile = DiurnalProfile(period_s=diurnal_period_s)
        return ModulatedPoissonProcess(
            rate_qps / profile.mean_factor, profile, seed=seed
        )
    if kind == "burst":
        profile = BurstProfile(
            every_s=burst_every_s, burst_s=burst_s, multiplier=burst_multiplier
        )
        return ModulatedPoissonProcess(
            rate_qps / profile.mean_factor, profile, seed=seed
        )
    raise ValueError(f"unknown arrival process: {kind!r}")
