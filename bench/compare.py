"""Compare two sets of benchmark records.

    python bench/compare.py A B

``A`` (the base) and ``B`` are each a record file written by
``bench/run.py`` (one workload or all) or a directory of such files.  Only
runs of the same workload *and seed* are compared.  One row per (workload,
end-to-end metric): both medians, the median over seeds of the ratio B/A
(base A), the bound, the noise, and

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  the noise (quartile distance of the per-seed ratios) is
                wider than the bound, so the runs cannot tell — unless every
                run of B reads better than every run of A of its seed.

Simulated-clock metrics and exact counts are compared run by run, for
runs of the same workload and seed, and must be *equal*: ``equal`` or
``DIFFERENT``.  Exits non-zero unless every row is ``ok``/``equal``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import spec  # noqa: E402


def load(path: Path) -> list[dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records: list[dict[str, Any]] = []
    for file in files:
        payload = json.loads(file.read_text())
        records.extend(payload.get("records", [payload]))
    return records


def quartile_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def by_seed(runs: list[dict[str, Any]], name: str) -> dict[int, list[dict[str, Any]]]:
    grouped: dict[int, list[dict[str, Any]]] = {}
    for run in runs:
        grouped.setdefault(run["seed"], []).append(run["end_to_end"][name])
    return grouped


def wall_row(name: str, a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Judge one wall metric from the B/A ratio of each seed both sets ran.

    Different seeds are different inputs, so only runs of the same seed are
    compared; the noise is the spread of those ratios over the seeds (it
    holds both sides' run-to-run noise), or with a single seed the spread A
    shows over its own runs or units.
    """
    entry = spec.END_TO_END[name]
    a, b = by_seed(a_runs, name), by_seed(b_runs, name)
    seeds = sorted(set(a) & set(b))
    a_medians = [statistics.median(e["value"] for e in a[seed]) for seed in seeds]
    b_medians = [statistics.median(e["value"] for e in b[seed]) for seed in seeds]
    sign = 1.0 if entry.better == "lower" else -1.0
    if all(a_medians):
        worse = [sign * (vb / va - 1.0) for va, vb in zip(a_medians, b_medians)]
    else:  # a base of zero (no failed operation): any increase is all of it
        worse = [float(sign * (vb - va) > 0) for va, vb in zip(a_medians, b_medians)]
    if len(seeds) >= 2:
        noise = quartile_spread([1.0 + w for w in worse])
    elif len(a[seeds[0]]) >= 2:
        noise = quartile_spread([e["value"] for e in a[seeds[0]]])
    else:
        only = a[seeds[0]][0]
        noise = abs(only["q3"] - only["q1"]) / abs(only["value"]) if "q1" in only else 0.0
    if noise > entry.bound > 0:
        every_run_better = all(
            sign * (eb["value"] - ea["value"]) < 0
            for seed in seeds for ea in a[seed] for eb in b[seed]
        )
        verdict = "ok" if every_run_better else "unresolved"
    else:
        verdict = "regressed" if statistics.median(worse) > entry.bound else "ok"
    a_median, b_median = statistics.median(a_medians), statistics.median(b_medians)
    return {
        "metric": name, "unit": entry.unit, "a": a_median, "b": b_median,
        "ratio": 1.0 + sign * statistics.median(worse) if all(a_medians) else float("nan"),
        "bound": entry.bound, "spread": noise, "seeds": len(seeds), "verdict": verdict,
    }


def exact_rows(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    """Equality of everything that is a pure function of seed and code."""
    pairs = {name: (a["exact"].get(name), b["exact"].get(name)) for name in a["exact"]}
    for name in spec.EXACT_COUNTS:
        in_a = a.get("per_layer", {}).get(name)
        in_b = b.get("per_layer", {}).get(name)
        if in_a is not None and in_b is not None:
            pairs[name] = (in_a["value"], in_b["value"])
    return [
        {
            "metric": f"{name} (seed {a['seed']})", "unit": "exact", "a": va, "b": vb,
            "ratio": float("nan"), "bound": 0.0, "spread": 0.0, "seeds": 1,
            "verdict": "equal" if va == vb else "DIFFERENT",
        }
        for name, (va, vb) in pairs.items()
    ]


def compare(a_records: list[dict[str, Any]], b_records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for workload in spec.WORKLOADS:
        a_runs = [r for r in a_records if r["workload"] == workload]
        b_by_seed = {r["seed"]: r for r in b_records if r["workload"] == workload}
        if not any(r["seed"] in b_by_seed for r in a_runs):
            continue
        b_runs = [r for r in b_records if r["workload"] == workload]
        for name, entry in spec.END_TO_END.items():
            if workload in entry.workloads and not entry.exact:
                rows.append({"workload": workload, **wall_row(name, a_runs, b_runs)})
        for a_run in a_runs:
            if a_run["seed"] in b_by_seed:
                rows.extend(
                    {"workload": workload, **row}
                    for row in exact_rows(a_run, b_by_seed[a_run["seed"]])
                )
    return rows


def show(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return text if len(text) <= 14 else text[:11] + "..."


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(Path(argv[0])), load(Path(argv[1])))
    if not rows:
        print("no workload is in both sets")
        return 2
    print(f"{'workload':<14} {'metric':<34} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6} {'noise':>7} {'seeds':>5}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<34} {show(row['a']):>14} "
              f"{show(row['b']):>14} {row['ratio']:>8.4f} {row['bound']:>6.2f} "
              f"{row['spread']:>7.4f} {row['seeds']:>5}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] not in ("ok", "equal")]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
