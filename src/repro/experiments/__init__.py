"""Experiment harnesses, one per paper figure/table (see DESIGN.md).

Each ``figNN_*`` module exposes ``run(testbed) -> Result`` and
``format_report(result) -> str``; the benchmark suite under
``benchmarks/`` drives them and prints the paper-vs-measured tables.
``paper`` holds the paper's reported values.
"""

from repro.experiments import oracle_sweep
from repro.experiments.testbed import Scale, Testbed

__all__ = [
    "Scale",
    "Testbed",
    "oracle_sweep",
]
