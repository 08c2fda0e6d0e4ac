"""Streaming metrics: counters, gauges, histograms, P² quantiles.

Everything here is **O(1) memory per instrument** — no sample retention.
A histogram keeps exact count, sum, min and max plus three P² percentile
estimators (Jain & Chlamtac 1985) for p50/p95/p99, which converge on the
true quantiles with five markers each.  That covers what the cluster
telemetry needs: queue depths, budget slack, latency tails and
Algorithm-1 pruning statistics, all streamed during a trace replay.

Disabled mode: a :class:`MetricsRegistry` built with ``enabled=False``
hands out shared null instruments whose mutators are no-ops, so
instrumentation sites can resolve instruments once at construction time
and call them unconditionally without retaining anything.
"""

from __future__ import annotations

import math

__all__ = [
    "Counter",
    "Gauge",
    "P2Quantile",
    "StreamingHistogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing sum (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def add(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins value with running min/max."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        out = {"type": "gauge", "value": self.value}
        if self.updates:
            out["min"] = self.min
            out["max"] = self.max
        return out


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Tracks one quantile ``p`` with five markers (heights + positions),
    adjusting marker heights by the piecewise-parabolic (P²) formula as
    observations stream in.  Exact for the first five observations, then
    O(1) per update with no retention — the classic choice for tail
    latency estimation without reservoirs.
    """

    __slots__ = ("p", "count", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.p = p
        self.count = 0
        self._q: list[float] = []  # marker heights
        self._n: list[float] = []  # marker positions (1-based)
        self._np: list[float] = []  # desired positions
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]  # position increments

    def observe(self, x: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._q.append(x)
            if self.count == 5:
                self._q.sort()
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.p
                self._np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            return
        q, n = self._q, self._n
        # Locate the cell containing x, clamping the extremes.
        if x < q[0]:
            q[0] = x
            cell = 0
        elif x >= q[4]:
            q[4] = x
            cell = 3
        else:
            cell = 0
            while x >= q[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._np[i] += self._dn[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if d >= 0 else -1.0
                candidate = _parabolic(q, n, i, sign)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = _linear(q, n, i, sign)
                n[i] += sign

    @property
    def value(self) -> float:
        """Current quantile estimate (exact below five observations)."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            ordered = sorted(self._q)
            # Nearest-rank on the exact retained values.
            rank = max(int(math.ceil(self.p * self.count)) - 1, 0)
            return ordered[rank]
        return self._q[2]


def _parabolic(q: list[float], n: list[float], i: int, sign: float) -> float:
    return q[i] + sign / (n[i + 1] - n[i - 1]) * (
        (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
        + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
    )


def _linear(q: list[float], n: list[float], i: int, sign: float) -> float:
    j = i + int(sign)
    return q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])


class StreamingHistogram:
    """Exact count/sum/min/max plus P² p50/p95/p99 — no samples kept."""

    __slots__ = ("name", "count", "sum", "min", "max", "_p2")

    #: The percentiles ``percentile`` answers, each from its P² estimator.
    PERCENTILES = (50, 95, 99)

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._p2 = {p: P2Quantile(p / 100.0) for p in self.PERCENTILES}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for estimator in self._p2.values():
            estimator.observe(value)

    # -------------------------------------------------------------- queries
    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def percentile(self, p: float) -> float:
        """The P² estimate of the ``p``-th percentile, ``p`` in 50/95/99."""
        estimator = self._p2.get(p)
        if estimator is None:
            raise ValueError(f"percentile must be one of {self.PERCENTILES}, got {p!r}")
        return estimator.value

    def snapshot(self) -> dict:
        out = {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
        }
        if self.count:
            out.update(
                mean=self.mean,
                min=self.min,
                max=self.max,
                p50=self.percentile(50),
                p95=self.percentile(95),
                p99=self.percentile(99),
            )
        return out


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def add(self, amount: float = 1) -> None:
        return None

    def snapshot(self) -> dict:
        return {"type": "counter", "value": 0}


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        return None

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": 0.0}


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        return None

    def percentile(self, p: float) -> float:
        return math.nan

    def snapshot(self) -> dict:
        return {"type": "histogram", "count": 0, "sum": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Name → instrument store with get-or-create accessors.

    Disabled registries hand back shared null instruments, so callers
    may resolve instruments eagerly (constructor time) and use them
    unconditionally — the disabled path allocates nothing per call.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, _NULL_COUNTER)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, _NULL_GAUGE)

    def histogram(self, name: str) -> StreamingHistogram:
        return self._get(name, StreamingHistogram, _NULL_HISTOGRAM)

    def _get(self, name: str, cls: type, null: object):
        if not self.enabled:
            return null
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name)
        elif not isinstance(instrument, cls):
            raise TypeError(f"{name!r} already registered as {type(instrument).__name__}")
        return instrument

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self):
        return iter(self._instruments.items())

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, dict]:
        """All instruments' states, sorted by name (JSON-ready)."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def clear(self) -> None:
        self._instruments.clear()
