"""Standalone serving-plane benchmark harness.

Builds the testbed, sweeps offered QPS through the open-loop serving
plane, and writes ``BENCH_serving.json`` for the perf trajectory (CI
uploads it as an artifact)::

    python benchmarks/run_bench_serving.py --out BENCH_serving.json

Exits nonzero if the measured goodput knee is not within
``--knee-tolerance`` of the queueing model's predicted saturation (or
the sweep never saturates), if the closed-loop trace replayed through
the serving plane is not bit-identical to ``SearchCluster.run_trace``,
or if the seeded open-loop drive (one million queries by default;
``--drive-queries`` scales it down for CI) exceeds the flat memory cap.
Seeds are pinned and the machine fingerprint is embedded in the record
so trajectories from different hosts are never compared blind.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import bench_serving  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default=bench_serving.SCALE)
    parser.add_argument("--policy", default=bench_serving.POLICY)
    parser.add_argument("--arrival", default=bench_serving.ARRIVAL)
    parser.add_argument(
        "--queries-per-point", type=int, default=bench_serving.QUERIES_PER_POINT
    )
    parser.add_argument(
        "--drive-queries", type=int, default=bench_serving.DRIVE_QUERIES,
        help="open-loop drive length (default one million; scale down for CI)",
    )
    parser.add_argument(
        "--knee-tolerance", type=float, default=bench_serving.KNEE_TOLERANCE,
        help="relative knee-vs-model tolerance the gate enforces",
    )
    parser.add_argument(
        "--memory-cap-mib", type=float,
        default=bench_serving.DRIVE_MEMORY_CAP_MIB,
        help="flat cap the drive's tracemalloc peak must stay under",
    )
    parser.add_argument("--seed", type=int, default=bench_serving.SEED)
    parser.add_argument(
        "--out", default="BENCH_serving.json", help="JSON output path"
    )
    args = parser.parse_args(argv)

    print(
        f"building {args.scale} testbed and sweeping {args.policy!r} "
        f"({args.arrival} arrivals, {args.drive_queries} drive queries)...",
        flush=True,
    )
    result = bench_serving.run(
        scale=args.scale,
        policy=args.policy,
        arrival=args.arrival,
        queries_per_point=args.queries_per_point,
        drive_queries=args.drive_queries,
        knee_tolerance=args.knee_tolerance,
        drive_memory_cap_mib=args.memory_cap_mib,
        seed=args.seed,
    )
    print(bench_serving.format_report(result))
    bench_serving.write_json(result, args.out)
    print(f"wrote {args.out}")

    if not result.knee_within_tolerance:
        print(
            f"FAIL: measured knee {result.measured_knee_qps:.1f} qps not "
            f"within {args.knee_tolerance:.0%} of predicted "
            f"{result.predicted_knee_qps:.1f} qps (saturated: "
            f"{result.knee_saturated})",
            file=sys.stderr,
        )
        return 1
    if not result.closed_loop_bit_identical:
        print(
            "FAIL: closed-loop trace through the serving plane is not "
            "bit-identical to run_trace",
            file=sys.stderr,
        )
        return 1
    if not result.bounded_memory:
        print(
            f"FAIL: drive peak {result.drive_peak_mib:.1f} MiB exceeded the "
            f"{args.memory_cap_mib:.0f} MiB cap",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
