"""CPU frequency scaling and the query service-time model.

The paper's testbed scales each ISN core between 1.2 and 2.7 GHz via ACPI
and assumes search work is compute-bound, so service time is inversely
proportional to frequency (Eq. 1).  The cost model converts the retrieval
engine's work counters into CPU cycles; dividing by the selected frequency
yields service time.  Constants are calibrated so that the synthetic
workload's latencies land in the paper's 4-65 ms band at the default
frequency (see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.retrieval.result import CostStats


@dataclass(frozen=True)
class FrequencyScale:
    """The discrete DVFS ladder of an ISN core.

    Defaults mirror the paper's Xeon E5-2697: 1.2-2.7 GHz; the maximum step
    is the "boosted" frequency Cottage uses to accelerate slow,
    high-quality ISNs.
    """

    levels_ghz: tuple[float, ...] = (1.2, 1.5, 1.8, 2.1, 2.4, 2.7)
    default_ghz: float = 2.1

    def __post_init__(self) -> None:
        if not self.levels_ghz:
            raise ValueError("need at least one frequency level")
        if any(b <= a for a, b in zip(self.levels_ghz, self.levels_ghz[1:])):
            raise ValueError("levels must be strictly increasing")
        if not 0.0 < self.levels_ghz[0] <= self.levels_ghz[-1] < math.inf:
            raise ValueError("frequency levels must be positive and finite")
        if self.default_ghz not in self.levels_ghz:
            raise ValueError("default frequency must be one of the levels")

    @property
    def min_ghz(self) -> float:
        return self.levels_ghz[0]

    @property
    def max_ghz(self) -> float:
        return self.levels_ghz[-1]

    def clamp(self, freq_ghz: float) -> float:
        """Snap an arbitrary request to the nearest available level at or
        above it (DVFS governors round up to meet deadlines)."""
        for level in self.levels_ghz:
            if level >= freq_ghz - 1e-12:
                return level
        return self.max_ghz

    @property
    def boost_ratio(self) -> float:
        """Speedup available by boosting from default to max frequency."""
        return self.max_ghz / self.default_ghz


@dataclass(frozen=True)
class CostModel:
    """Converts retrieval work into CPU cycles and service time.

    ``cycles = fixed + docs * cycles_per_doc + scored * cycles_per_posting
    + skipped * cycles_per_skip``.  Scoring a posting is cheap; the per-
    document cost (heap operations, doc lookup, cache misses) dominates,
    which is why service time tracks documents evaluated — the same
    proportionality the paper leans on ("a query's service time at an ISN
    is roughly proportional to the length of its posting list").
    """

    cycles_per_doc: float = 700_000.0
    cycles_per_posting: float = 90_000.0
    cycles_per_skip: float = 7_000.0
    fixed_cycles: float = 4_000_000.0

    def __post_init__(self) -> None:
        # Checked here, once: the event loop divides cycles by a frequency
        # per job and must not have to look for NaN or zero-cost work.
        for name in (
            "cycles_per_doc", "cycles_per_posting", "cycles_per_skip", "fixed_cycles"
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    def cycles(self, cost: CostStats) -> float:
        return (
            self.fixed_cycles
            + cost.docs_evaluated * self.cycles_per_doc
            + cost.postings_scored * self.cycles_per_posting
            + cost.postings_skipped * self.cycles_per_skip
        )

    def service_ms(self, cost: CostStats, freq_ghz: float) -> float:
        """Service time in milliseconds at the given core frequency."""
        if freq_ghz <= 0:
            raise ValueError("frequency must be positive")
        return self.cycles(cost) / (freq_ghz * 1e6)


def scaled_service_ms(
    predicted_default_ms: float, default_ghz: float, freq_ghz: float
) -> float:
    """Paper Eq. (1): S_i = S_i^Predict * f_default / f."""
    if freq_ghz <= 0:
        raise ValueError("frequency must be positive")
    return predicted_default_ms * default_ghz / freq_ghz


def equivalent_latency_ms(
    queued_predicted_default_ms: float,
    predicted_default_ms: float,
    default_ghz: float,
    freq_ghz: float,
) -> float:
    """Queue-aware latency at frequency ``f`` (paper Eq. 2, adapted).

    The paper's Eq. 2 divides the *entire* backlog by ``f`` — correct when
    boosting retunes the whole core until the queue drains.  This
    simulator's ISNs choose a frequency per job, so the queued work runs
    at its own (default) frequency and only the new request's service
    scales:  ``S* = queue_default + S^Predict * f_default / f``.  Using
    the literal Eq. 2 here systematically underestimates boosted
    latencies under load and turns kept ISNs into deadline misses (caught
    by the oracle-policy test: perfect predictions still lost quality).
    """
    return queued_predicted_default_ms + scaled_service_ms(
        predicted_default_ms, default_ghz, freq_ghz
    )
