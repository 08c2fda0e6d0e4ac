"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` is the one table: workload names and reasons, the
per-layer metrics with unit and direction, and unit, direction and bound of
the end-to-end metrics the driver gates.  This module reads it and adds
only what its fixed keys cannot say: which workloads an end-to-end metric
applies to, which metrics are on the simulated clock, and the bounds
``bench/compare.py`` uses for the metrics the driver does not gate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, NamedTuple

CONFIG: dict[str, Any] = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in CONFIG["workloads"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}

ALL = tuple(WORKLOADS)
SIMULATED = ("replay_closed", "serve_burst")
SEARCH = ("search_cold", "search_store")

#: End-to-end metrics only some workloads have.  The driver wants every
#: ``end_to_end`` metric from every workload and never zero, so these are
#: ``per_layer`` rows of ``BENCHMARK.json`` under this prefix: the traced
#: record carries them (taken from its untraced phase), 0 where they do not
#: apply.
PARTIAL_PREFIX = "e2e."

#: Exact counts that only a traced record has: ``compare.py`` requires them
#: equal too, besides everything in a record's ``exact`` block (``sim_*``,
#: ``cluster.events``, ``retrieval.postings_scored``, the result digests).
EXACT_COUNTS = ("core.selected_share", "core.boosted_share", "core.budgeted_share")


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float  # share of the baseline median the metric may worsen by
    workloads: tuple[str, ...]
    exact: bool  # simulated clock: must repeat bit for bit per seed


#: The workloads each end-to-end metric applies to.  ``sim_*`` metrics are
#: exact per seed: ``compare.py`` requires equality, and their bound only
#: says how much a deliberate model change may cost.
SCOPE: dict[str, tuple[str, ...]] = {
    "setup_s": ALL,
    "wall_qps": ALL,
    "peak_rss_mib": ALL,
    "query_wall_ms_p50": SEARCH,
    "query_wall_ms_p95": SEARCH,
    "sim_mean_ms": SIMULATED,
    "sim_p99_ms": SIMULATED,
    "sim_power_w": SIMULATED,
    "sim_p_at_10": ("replay_closed",),
    "sim_goodput_qps": ("serve_burst",),
    "sim_shed_share": ("serve_burst",),
}
SIM_BOUND = 0.01


def _end_to_end() -> dict[str, EndToEnd]:
    gated = {m["name"]: m for m in CONFIG["end_to_end"]}
    partial = {m["name"]: m for m in CONFIG["per_layer"]}
    out = {}
    for name, workloads in SCOPE.items():
        row = gated.get(name) or partial[PARTIAL_PREFIX + name]
        exact = name.startswith("sim_")
        # An ungated wall metric takes the gated wall bound.
        bound = row.get("bound", SIM_BOUND if exact else gated["wall_qps"]["bound"])
        out[name] = EndToEnd(row["unit"], row["better"], bound, workloads, exact)
    # Always 0 on a correct run, so the driver cannot list it; it is the
    # ``failed / attempted`` of the last output line.  Any increase regresses.
    out["ops_failed_share"] = EndToEnd("ratio", "lower", 0.0, ALL, False)
    return out


END_TO_END = _end_to_end()


def driver_end_to_end() -> list[str]:
    """The metrics the driver gates: every workload reports them, never zero."""
    return [m["name"] for m in CONFIG["end_to_end"]]
