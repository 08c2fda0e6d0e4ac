"""The telemetry session: one tracer + one metrics registry.

A :class:`Telemetry` object is what flows through the cluster — pass one
to :meth:`SearchCluster.run_trace` and every layer it touches (event
loop, aggregator, ISNs, policies, predictor bank, searchers) records into
it.  ``None`` (the default everywhere) resolves to :data:`NO_TELEMETRY`,
a shared disabled session whose tracer and registry are permanent
no-ops: instrumentation sites test one ``enabled`` flag (or a cached
``None`` tracer reference) and allocate nothing, which is what keeps the
disabled-mode overhead under the 2% CI gate
(``benchmarks/bench_telemetry_overhead.py``).
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer

__all__ = ["Telemetry", "NO_TELEMETRY"]


class Telemetry:
    """Bundles a :class:`Tracer` and a :class:`MetricsRegistry`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled)
        self.metrics = MetricsRegistry(enabled=enabled)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer's sim clock at a simulator (``lambda: sim.now``)."""
        self.tracer.bind_clock(clock)

    def unbind_clock(self) -> None:
        self.tracer.unbind_clock()

    def clear(self) -> None:
        """Drop all spans and metrics, keeping the session reusable."""
        self.tracer.clear()
        self.metrics.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Telemetry {state}: {len(self.tracer.spans)} spans, "
            f"{len(self.metrics)} instruments>"
        )


#: The shared disabled session every un-instrumented call site resolves to.
NO_TELEMETRY = Telemetry(enabled=False)
