"""Data-center network model.

The paper notes that aggregator<->ISN round trips are "a few microseconds"
against tens-of-milliseconds service times, so a simple latency+bandwidth
model is faithful: Cottage's extra coordination round costs two message
delays plus predictor inference, and that overhead must stay negligible for
the reproduction to be honest about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """One-way message delay between the aggregator and an ISN."""

    base_delay_ms: float = 0.05
    bandwidth_gbps: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_delay_ms < math.inf:
            raise ValueError("base delay must be non-negative and finite")
        if not 0.0 < self.bandwidth_gbps < math.inf:
            raise ValueError("bandwidth must be positive and finite")

    def delay_ms(self, payload_bytes: int = 256) -> float:
        """One-way delay for a message of ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        transfer_ms = payload_bytes * 8 / (self.bandwidth_gbps * 1e6)
        return self.base_delay_ms + transfer_ms
