"""Experiment harnesses, one per paper figure/table (see DESIGN.md).

Each ``figNN_*`` module exposes ``run(testbed) -> Result`` and
``format_report(result) -> str``; ``repro figure NAME`` prints one.
``scoreboard`` holds the paper's reported values as one claims table that
the reports print from and ``repro paper`` records.
"""

from repro.experiments.testbed import Scale, Testbed

__all__ = [
    "Scale",
    "Testbed",
]
