"""One sha-256 per trained predictor state, at ``Scale.unit`` and ``Scale.small``.

    python docs/bench/predictor_states.py [--unit] > states.txt
    python docs/bench/predictor_states.py [--unit] --against states.txt

Builds each scale's ``Testbed`` (corpus, shards, trained predictor bank)
and prints one line per predictor state, in bank order::

    <scale> shard<sid>.<quality_k|quality_half|latency> <sha-256>

24 lines at ``Scale.unit`` (8 shards) and 48 at ``Scale.small`` (16).
A state's digest covers every array of :meth:`QualityPredictor.state` /
:meth:`LatencyPredictor.state` (weights, scaler statistics, bin edges):
key, dtype, shape and bytes.  ``--unit`` builds only ``Scale.unit``
(≈5 s instead of ≈17 s on 2 vCPUs).  With ``--against FILE`` (a
listing saved by an earlier run; its lines for scales not built are
ignored) it prints one line when every state matches; otherwise it
names each state that moved, appeared or vanished on stderr and exits
1.  BLAS is pinned to one thread before numpy loads, as the benchmark
does.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def state_digest(state: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(state):
        value = state[key]
        digest.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def listing(scales: list[str]) -> dict[str, str]:
    """``"<scale> shard<sid>.<kind>"`` -> digest, in bank order."""
    from repro.experiments.testbed import Scale, Testbed

    states: dict[str, str] = {}
    for scale in scales:
        bank = Testbed.build(getattr(Scale, scale)()).bank
        for sid in range(bank.n_shards):
            for kind, models in (
                ("quality_k", bank.quality_k_models),
                ("quality_half", bank.quality_half_models),
                ("latency", bank.latency_models),
            ):
                states[f"{scale} shard{sid}.{kind}"] = state_digest(models[sid].state())
    return states


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--unit", action="store_true", help="Scale.unit only")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a saved listing; exit 1 naming every state that moved")
    args = parser.parse_args()

    scales = ["unit"] if args.unit else ["unit", "small"]
    states = listing(scales)
    if args.against is None:
        for name, digest in states.items():
            print(f"{name} {digest}")
        return 0
    saved: dict[str, str] = {}
    for line in args.against.read_text().splitlines():
        if line.strip():
            scale, state, digest = line.split()
            if scale in scales:
                saved[f"{scale} {state}"] = digest
    moved = [
        name for name in sorted(saved.keys() | states.keys())
        if saved.get(name) != states.get(name)
    ]
    for name in moved:
        if name not in states:
            print(f"{name}: in {args.against}, not built", file=sys.stderr)
        elif name not in saved:
            print(f"{name}: built, not in {args.against}", file=sys.stderr)
        else:
            print(f"{name}: {saved[name][:12]}… -> {states[name][:12]}…", file=sys.stderr)
    if moved:
        return 1
    print(f"{len(states)} predictor states match {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
