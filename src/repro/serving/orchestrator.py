"""``ServingStats``'s old import path, kept for ``bench/`` until its next change.

The run engine is :meth:`repro.cluster.engine.SearchCluster._run`; the
streaming sink lives beside the ``RunResult`` that carries it.
"""

from repro.cluster.engine import ServingStats

__all__ = ["ServingStats"]
