"""Fixtures for the ablation and extension benches.

One trained testbed is shared by every bench in the session.  Set
``REPRO_SCALE=unit|small|full`` to change the size (default: small).  The
paper's own figures are not here: ``repro paper`` records them
(``repro.experiments.scoreboard``) and tier-1 pins them.
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
