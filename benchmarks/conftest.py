"""Benchmark fixtures.

One trained testbed is shared by every benchmark in the session: the
evaluation figures all read the same workload, index and trained
predictors, just like the paper's single-testbed evaluation.  Set
``REPRO_SCALE=unit|small|full`` to change the size (default: small).
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import Scale, Testbed  # noqa: E402


def _scale() -> Scale:
    name = os.environ.get("REPRO_SCALE", "small")
    try:
        return getattr(Scale, name)()
    except AttributeError:
        raise ValueError(f"unknown REPRO_SCALE {name!r}; use unit, small or full")


@pytest.fixture(scope="session")
def testbed() -> Testbed:
    return Testbed.build(_scale())


def emit(report: str) -> None:
    """Print an experiment report so it lands in the benchmark output."""
    print()
    print(report)


def full_fidelity(testbed: Testbed) -> bool:
    """Whether the testbed is big enough for the paper-shape assertions.

    At unit scale (8 shards, a few hundred documents) the simulation still
    runs end to end but some shape margins (power ordering, C_RES ratios)
    fall inside noise; benches assert them strictly only at >= small scale.
    """
    return testbed.cluster.n_shards >= 16
