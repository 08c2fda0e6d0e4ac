"""Standalone storage-plane benchmark harness.

Builds the scaled column-direct corpus, packs it into compressed
``.store`` shards, reopens them lazily, and measures compression ratio,
cold-open time, kernel-on-compressed speedup and decode-LRU hit rate,
writing ``BENCH_storage.json`` for the perf trajectory (CI uploads it as
an artifact)::

    python benchmarks/run_bench_storage.py --out BENCH_storage.json

Exits nonzero if any bit-identity check fails or if the compression
ratio falls below ``--fail-ratio-below`` (default 2x).  Seeds are pinned
and the machine fingerprint (platform, python, numpy, cpu count) is
embedded in the record so trajectories from different hosts are never
compared blind.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import bench_storage  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=bench_storage.N_SHARDS)
    parser.add_argument(
        "--docs-per-shard", type=int, default=bench_storage.DOCS_PER_SHARD
    )
    parser.add_argument("--vocab", type=int, default=bench_storage.VOCAB_SIZE)
    parser.add_argument("--queries", type=int, default=bench_storage.N_QUERIES)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seed", type=int, default=bench_storage.SEED)
    parser.add_argument(
        "--out", default="BENCH_storage.json", help="JSON output path"
    )
    parser.add_argument(
        "--fail-ratio-below", type=float, default=2.0,
        help="exit nonzero if the compression ratio falls below this factor",
    )
    args = parser.parse_args(argv)

    print(
        f"building {args.shards}-shard x {args.docs_per_shard}-doc corpus, "
        "packing stores and measuring...",
        flush=True,
    )
    result = bench_storage.run(
        n_shards=args.shards,
        docs_per_shard=args.docs_per_shard,
        vocab_size=args.vocab,
        n_queries=args.queries,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(bench_storage.format_report(result))
    bench_storage.write_json(result, args.out)
    print(f"wrote {args.out}")

    if not result.bit_identical:
        broken = [
            name
            for name, ok in result.strategies_bit_identical.items()
            if not ok
        ]
        print(f"FAIL: not bit-identical: {broken}", file=sys.stderr)
        return 1
    if result.compression_ratio < args.fail_ratio_below:
        print(
            f"FAIL: compression ratio {result.compression_ratio:.2f}x below "
            f"--fail-ratio-below {args.fail_ratio_below:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
