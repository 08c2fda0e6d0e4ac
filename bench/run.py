"""The repo benchmark: one command, four workloads, two clocks.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out PATH]

With ``--workload`` the workload runs in this process; without it every
workload runs one after another, each in a fresh Python process (so peak
RSS and every cache start clean per workload).  See ``bench/README.md``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0: every
check passed; 3: a correctness check failed (the record and the last line
are still written); anything else: the run crashed and has no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHECK_FAILED = 3  # exit code; distinct from 1, which an uncaught exception gives


def pin_blas() -> bool:
    """One BLAS thread, so build times do not depend on idle cores.

    Only takes effect if numpy has not been imported yet; returns whether
    that was the case.
    """
    for name in BLAS_PINS:
        os.environ[name] = "1"
    return "numpy" not in sys.modules


def find_program() -> None:
    """Make ``repro`` (the program) and ``bench`` importable, or stop."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench/run.py: no program to measure under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or "unknown"


def machine(pinned_before_numpy: bool) -> dict[str, Any]:
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PINS},
        "blas_pinned_before_numpy_import": pinned_before_numpy,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    out_dir: Path = OUT,
) -> dict[str, Any]:
    """Set up, measure, check (and trace) one workload in this process."""
    from bench import spec
    from bench.search import SearchCold, SearchStore
    from bench.simulated import ReplayClosed, ServeBurst
    from bench.spans import Recorder
    from bench.workload import (
        FULL_SIZES, SMOKE_SIZES, Check, layer_self_seconds, metric, ratio, spread,
    )

    classes = {cls.name: cls for cls in (ReplayClosed, ServeBurst, SearchCold, SearchStore)}
    sizes = (SMOKE_SIZES if smoke else FULL_SIZES)[name]
    workload = classes[name](seed, sizes, out_dir)
    rec = Recorder()
    try:
        # Set-up, several times where that is affordable; the last one's
        # state is measured.  Traced runs wrap the set-up's entry points too.
        setup_walls = []
        with rec.patched(workload.install) if trace else nullcontext():
            for index in range(sizes["setups"]):
                workload.close()  # drop the previous set-up's inputs first
                gc.collect()
                setup_first = rec.mark()
                start = perf_counter()
                with rec.span("bench.setup", op=index):
                    workload.setup(rec)
                setup_walls.append(perf_counter() - start)
        setup_last = rec.mark()

        gc.collect()
        untraced = workload.measure(seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks: list[Check] = workload.checks(untraced)
        attempted = workload.operations(untraced)
        exact = workload.exact(untraced)

        end_to_end = workload.end_to_end(untraced)
        end_to_end["setup_s"] = spread(setup_walls, "s")
        # Gated on untraced runs; a traced run's set-up also holds its spans.
        end_to_end["peak_rss_mib"] = metric(peak_rss_mib, "MiB", setup_spans=setup_last)

        record: dict[str, Any] = {
            "workload": name, "seed": seed, "seconds": seconds,
            "comparable": not smoke, "traced": trace,
            "sizes": workload.sizes_used(),
            "units": len(untraced.unit_walls),
            "unit_walls_s": untraced.unit_walls,
        }
        if trace:
            measured_first = rec.mark()
            with rec.patched(workload.install):
                gc.collect()
                traced = workload.measure(seconds)
            attempted += workload.operations(traced)
            same = workload.exact(traced) == exact
            checks.append(Check(
                "traced_equals_untraced", workload.operations(traced),
                0 if same else workload.operations(traced),
                "simulated-clock metrics and exact counts equal with tracing on",
            ))
            measured = rec.totals(measured_first)
            units = len(traced.unit_walls)
            layers = workload.layers(
                rec, rec.totals(setup_first, setup_last), measured, untraced, traced
            )
            base = workload.unit_seconds(untraced)
            layers["trace.overhead_share"] = ratio(
                workload.unit_seconds(traced) - base, base
            )
            layers["trace.spans"] = metric(rec.mark() - measured_first, "count")
            for metric_name, entry in spec.END_TO_END.items():
                if entry.workloads != spec.ALL:
                    layers[spec.PARTIAL_PREFIX + metric_name] = end_to_end.get(
                        metric_name, metric(0, entry.unit)
                    )
            for layer_name, unit in spec.PER_LAYER.items():
                layers.setdefault(layer_name, metric(0, unit))
            self_s = layer_self_seconds(measured, units)
            trace_file = out_dir / f"trace_{name}.jsonl"
            record["per_layer"] = layers
            record["trace"] = {
                # Self times per layer and unit; they sum to the traced unit
                # wall (the loop's own perf_counter readings) up to the root
                # wrapper's own cost.
                "layer_self_s": self_s,
                "layer_self_sum_s": sum(self_s.values()),
                "traced_unit_wall_s": statistics.fmean(traced.unit_walls),
                "untraced_unit_wall_s": statistics.fmean(untraced.unit_walls),
                "units": units,
                "spans_written": rec.write_jsonl(trace_file),
                "file": str(trace_file),
            }
    finally:
        workload.close()

    failed = min(attempted, sum(check.failed for check in checks))
    end_to_end["ops_failed_share"] = ratio(failed, attempted)
    record.update(
        attempted=attempted, failed=failed,
        checks=[asdict(check) for check in checks],
        end_to_end=end_to_end, exact=exact,
    )
    return record


def driver_metrics(record: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """What the last output line carries: every metric ``BENCHMARK.json``
    names — per-layer for a traced run, end-to-end otherwise."""
    from bench import spec

    if record["traced"]:
        source, names = record["per_layer"], list(spec.PER_LAYER)
    else:
        source, names = record["end_to_end"], spec.driver_end_to_end()
    return {
        name: {"value": source[name]["value"], "unit": source[name]["unit"]}
        for name in names
    }


def report(record: dict[str, Any]) -> None:
    """Print every metric by name, with its unit and the counts behind it."""
    print(f"== {record['workload']}  seed={record['seed']}  units={record['units']}"
          f"{'' if record['comparable'] else '  (smoke: not comparable)'}")
    for section in ("end_to_end", "per_layer"):
        for name, entry in record.get(section, {}).items():
            behind = "  ".join(
                f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
                for key, value in entry.items() if key not in ("value", "unit")
            )
            print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']:<6} {behind}")
    for check in record["checks"]:
        verdict = "ok" if not check["failed"] else "FAILED"
        print(f"check {check['name']:<28} {verdict}  "
              f"{check['failed']}/{check['attempted']}  {check['detail']}")


def last_line(records: list[dict[str, Any]]) -> str:
    failed = sum(record["failed"] for record in records)
    metrics: dict[str, Any] = {}
    for record in records:
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for name, entry in driver_metrics(record).items():
            metrics[prefix + name] = entry
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    })


def write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each measured phase runs (default: "
                             "run_seconds of BENCHMARK.json; 0.2 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also run the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; the record is marked non-comparable")
    parser.add_argument("--out", type=Path, default=None, help="where to write the record")
    args = parser.parse_args(argv)

    pinned = pin_blas()
    find_program()
    from bench import spec

    if args.workload is not None and args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(spec.WORKLOADS)}")
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(spec.CONFIG["run_seconds"])
    header = {"machine": machine(pinned), "git_commit": git_commit()}

    if args.workload is not None:
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        records = [record]
        write_json(args.out or OUT / f"record_{args.workload}.json", {**header, **record})
    else:
        records = []
        OUT.mkdir(parents=True, exist_ok=True)
        # Each child hands its record over in a directory made for this run,
        # so a child that dies cannot be mistaken for an earlier run's result.
        with tempfile.TemporaryDirectory(dir=OUT, prefix="children_") as handover:
            for name in spec.WORKLOADS:
                child_out = Path(handover) / f"{name}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(child_out),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
                if done.returncode not in (0, CHECK_FAILED) or not child_out.exists():
                    print(f"bench/run.py: {name} crashed (exit {done.returncode}); "
                          "no result", file=sys.stderr)
                    return done.returncode or 1
                records.append(json.loads(child_out.read_text()))
        write_json(args.out or OUT / "record.json", {**header, "records": records})

    for record in records:
        report(record)
    print(last_line(records))
    return 0 if all(record["failed"] == 0 for record in records) else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
