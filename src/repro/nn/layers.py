"""Neural network layers (numpy, CPU).

A minimal Keras-like layer API: ``forward`` caches whatever ``backward``
needs; ``backward`` receives dL/d(output) and returns dL/d(input), storing
parameter gradients on the layer until ``release`` drops both.  This is
all the paper's predictors need — 5 hidden Dense+ReLU layers and a
softmax classification head.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Layer(ABC):
    """Base layer."""

    @abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute outputs for a batch ``x`` of shape (batch, features)."""

    @abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate; return dL/d(input), store parameter grads."""

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs; empty for stateless layers."""
        return []

    def state(self) -> dict[str, np.ndarray]:
        """Serializable parameter arrays."""
        return {}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`state` output."""

    def release(self) -> None:
        """Drop the activation caches and gradients training left behind."""


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Weights use He initialization (appropriate for the ReLU stacks the
    paper's models are built from); the RNG is injected for reproducible
    training runs.
    """

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("feature dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.W = rng.normal(0.0, scale, size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.dW: np.ndarray | None = None
        self.db: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward(training=True)"
        self.dW = self._x.T @ grad_out
        self.db = grad_out.sum(axis=0)
        return grad_out @ self.W.T

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        assert self.dW is not None and self.db is not None, "no backward yet"
        return [(self.W, self.dW), (self.b, self.db)]

    def release(self) -> None:
        self.dW = self.db = self._x = None

    def state(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if state["W"].shape != self.W.shape or state["b"].shape != self.b.shape:
            raise ValueError("state shapes do not match layer shapes")
        self.W[...] = state["W"]
        self.b[...] = state["b"]


class StackedDense:
    """S same-shape :class:`Dense` layers fused into one batched matmul.

    Weights are stacked into ``W[S, in, out]`` / ``b[S, 1, out]`` so one
    ``np.matmul`` evaluates every model in the stack.  ``np.matmul`` on a
    3-D operand applies the identical 2-D product to each stack slice, so
    ``forward(x)[s]`` is bit-identical to ``x[s] @ W_s + b_s`` — the
    per-model loop this layer replaces.  Inference-only: no gradients.
    The stack *is* the weights: :meth:`like` allocates it once, and
    :meth:`adopt` copies a layer into its slice and rebinds the layer's
    ``W``/``b`` to views of it, so every weight is resident once and
    in-place updates (``load_state``, ``fit``) write through.
    """

    def __init__(self, W: np.ndarray, b: np.ndarray) -> None:
        if W.ndim != 3 or b.shape != (W.shape[0], W.shape[2]):
            raise ValueError("expected W[S, in, out] and b[S, out]")
        self.W = W
        self.b = b[:, None, :]

    @classmethod
    def like(cls, layer: Dense, n: int) -> "StackedDense":
        """An unfilled stack of ``n`` layers shaped like ``layer``."""
        return cls(np.empty((n, *layer.W.shape)), np.empty((n, layer.b.size)))

    def adopt(self, s: int, layer: Dense) -> None:
        """Copy ``layer`` into slice ``s``; its ``W``/``b`` become views of it."""
        if layer.W.shape != self.W.shape[1:]:
            raise ValueError("stacked Dense layers must share weight shapes")
        self.W[s], self.b[s, 0] = layer.W, layer.b
        layer.W, layer.b = self.W[s], self.b[s, 0]

    @property
    def n_stacked(self) -> int:
        return self.W.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One fused matmul over the whole stack.

        ``x[S, B, in] -> y[S, B, out]``, or with a query axis
        ``x[S, NQ, B, in] -> y[S, NQ, B, out]``.  The shard-major layout
        is deliberate: consecutive gemm slices reuse the same weight
        block, so it stays in cache across the query batch.
        """
        if x.ndim == 4:
            y = np.matmul(x, self.W[:, None])
            y += self.b[:, None]
        else:
            y = np.matmul(x, self.W)
            y += self.b
        return y


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward(training=True)"
        return grad_out * self._mask

    def release(self) -> None:
        self._mask = None


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def release(self) -> None:
        self._mask = None
