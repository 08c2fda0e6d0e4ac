"""What the four workloads share: the protocol, sizes and metric helpers.

Each workload (``bench/simulated.py``, ``bench/search.py``) has the same
five steps, driven by ``bench/run.py``:

``setup``    build inputs from the seed and bring every cache to the state
             the workload is defined on (cache-state discipline below);
``install``  name the public entry points the traced pass wraps;
``measure``  run whole *units* of fixed work until the time is up, timing
             each with ``perf_counter`` — identical code traced or not;
``checks``   verify the outputs of the measured units (untimed);
``end_to_end`` / ``layers``  turn the samples into named metrics.

A *unit* is one round of both traces (``replay_closed``), one ``serve``
segment (``serve_burst``) or one pass over the query set (``search_*``).
Units are identical work, so wall metrics are medians over units, exact
counts are counts of one unit, and per-layer times are seconds per unit.

Cache-state discipline: ``replay_closed`` and ``serve_burst`` time only
hot memos (every retrieval and prediction was computed in set-up, and the
``cache_state`` check fails the run if a measured unit computes one);
``search_*`` builds a fresh ``DistributedSearcher`` per pass (every
(query, shard) is a memo miss) and ``search_store`` reopens its stores per
pass (decode caches start empty).
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from bench.spans import NameTotals, Recorder, layer_of

#: Workload sizes.  The testbed and corpus scales are the issue's; the
#: per-unit counts are scaled down from it (10 rounds / 60 000 queries /
#: 1 000 queries) so that 92 driver runs fit the driver's time cap.
FULL_SIZES: dict[str, dict[str, Any]] = {
    "replay_closed": {"scale": "small", "min_units": 3, "setups": 1},
    "serve_burst": {
        "scale": "small", "min_units": 4, "setups": 1, "segment_queries": 10_000,
        "warmup_queries": 2_000, "pool": 150, "load_factor": 0.9,
        "max_in_flight": 256,
    },
    "search_cold": {
        "n_shards": 4, "docs_per_shard": 150_000, "vocab": 96, "queries": 200,
        "min_units": 3, "setups": 5, "check_sample": 50,
    },
    "search_store": {
        "n_shards": 4, "docs_per_shard": 150_000, "vocab": 96, "queries": 200,
        "min_units": 3, "setups": 3, "check_sample": 100, "cache_bytes": 2 << 20,
    },
}

#: ``--smoke``: seconds-long versions for ``bench/test_bench.py``.  Their
#: records are marked non-comparable.
SMOKE_SIZES: dict[str, dict[str, Any]] = {
    "replay_closed": {"scale": "unit", "min_units": 2, "setups": 1},
    "serve_burst": {
        "scale": "unit", "min_units": 2, "setups": 1, "segment_queries": 600,
        "warmup_queries": 200, "pool": 60, "load_factor": 0.9, "max_in_flight": 32,
    },
    "search_cold": {
        "n_shards": 2, "docs_per_shard": 4_000, "vocab": 48, "queries": 40,
        "min_units": 2, "setups": 2, "check_sample": 10,
    },
    "search_store": {
        "n_shards": 2, "docs_per_shard": 4_000, "vocab": 48, "queries": 40,
        "min_units": 2, "setups": 2, "check_sample": 10, "cache_bytes": 16 << 10,
    },
}


def metric(value: float, unit: str, **behind: Any) -> dict[str, Any]:
    """A metric value with its unit and the counts behind it."""
    return {"value": value, "unit": unit, **behind}


def ratio(num: float, den: float, unit: str = "ratio") -> dict[str, Any]:
    return metric(num / den if den else 0.0, unit, num=num, den=den)


def spread(values: list[float], unit: str) -> dict[str, Any]:
    """Median of ``values`` with sample count and quartiles."""
    out = metric(statistics.median(values), unit, n=len(values))
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation: an observed sample)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


@dataclass
class Check:
    """One correctness check: operations covered, operations that failed."""

    name: str
    attempted: int
    failed: int
    detail: str = ""


@dataclass
class Phase:
    """What one measured phase (traced or not) produced."""

    unit_walls: list[float] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)


def time_up(units: int, min_units: int, started: float, seconds: float) -> bool:
    return units >= min_units and perf_counter() - started >= seconds


def digest(lines: list[str]) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def layer_self_seconds(totals: dict[str, NameTotals], units: int) -> dict[str, float]:
    """Self time per layer and unit; sums to the mean traced unit wall."""
    out: dict[str, float] = {}
    for name, entry in totals.items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + entry.self_s / units
    return out


def busy(totals: dict[str, NameTotals], name: str) -> NameTotals:
    return totals.get(name, NameTotals())


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: dict[str, Any], out_dir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir

    def setup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def install(self, rec: Recorder) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Phase:
        raise NotImplementedError

    def operations(self, phase: Phase) -> int:
        """Operations (queries) the measured phase attempted."""
        raise NotImplementedError

    def unit_seconds(self, phase: Phase) -> float:
        """Wall time of one unit: a median over the phase's identical units.

        Workloads whose unit is made of separately timed parts take the
        median per part, so that interference during one part of one unit
        moves nothing.
        """
        return statistics.median(phase.unit_walls)

    def checks(self, phase: Phase) -> list[Check]:
        raise NotImplementedError

    def exact(self, phase: Phase) -> dict[str, Any]:
        """Simulated-clock values and exact counts: equal on every run of a seed."""
        raise NotImplementedError

    def end_to_end(self, phase: Phase) -> dict[str, dict[str, Any]]:
        raise NotImplementedError

    def layers(
        self, rec: Recorder, setup: dict[str, NameTotals],
        measured: dict[str, NameTotals], untraced: Phase, traced: Phase,
    ) -> dict[str, dict[str, Any]]:
        """Per-layer metrics from the span totals of the (last) set-up and of
        the traced measured phase."""
        raise NotImplementedError

    def sizes_used(self) -> dict[str, Any]:
        """The sizes the inputs actually came out at."""
        raise NotImplementedError

    def close(self) -> None:
        """Drop what the last set-up built (before the next one, and at the end)."""
