"""The loss both predictors train with.

The paper trains both predictors with sparse categorical cross-entropy
(Section III-B); the softmax is fused into the loss for numerical stability,
so models output raw logits.
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis.

    Accepts both 2-D ``(batch, classes)`` logits and the stacked 3-D
    ``(stack, batch, classes)`` tensors the fused cross-shard forward pass
    produces; for 2-D input the result is bit-identical to the historical
    axis-1 formulation.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class SparseCategoricalCrossentropy:
    """Cross-entropy over integer class targets, with fused softmax."""

    def compute(self, outputs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Return (mean loss, dL/d(outputs))."""
        targets = np.asarray(targets, dtype=np.int64)
        n, n_classes = outputs.shape
        if targets.shape != (n,):
            raise ValueError("targets must be a vector of batch-size class ids")
        if targets.min(initial=0) < 0 or targets.max(initial=0) >= n_classes:
            raise ValueError("target class out of range")
        probs = softmax(outputs)
        picked = probs[np.arange(n), targets]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        grad = probs
        grad[np.arange(n), targets] -= 1.0
        return loss, grad / n
