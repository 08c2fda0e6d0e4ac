"""Gradient-descent optimizers.

The paper trains with Adam (Kingma & Ba); SGD-with-momentum is provided for
the optimizer ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Optimizer(ABC):
    """Updates parameters in place from gradients stored by the layers.

    Per-parameter state is keyed by the parameter array and holds a
    reference to it, so a freed array's id never inherits its state.
    """

    @abstractmethod
    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one update; ``params`` is [(parameter, gradient), ...]."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for param, grad in params:
            if self.momentum > 0.0:
                state = self._velocity.get(id(param))
                if state is None or state[0] is not param:
                    state = self._velocity[id(param)] = (param, np.zeros_like(param))
                vel = state[1]
                vel *= self.momentum
                vel -= self.learning_rate * grad
                param += vel
            else:
                param -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam with bias correction (the paper's training algorithm).

    ``weight_decay`` applies decoupled (AdamW-style) L2 regularization:
    the decay multiplies the parameter directly rather than entering the
    adaptive moments.

    A step is 14 in-place elementwise numpy calls per parameter array, two
    scratch buffers standing in for the textbook's temporaries, in the
    textbook's order of operations: the floats are the same.  On the
    bias vectors and thin edge layers of the paper's MLP a call costs its
    dispatch, not its arithmetic, so ``Sequential.fit`` hands it one flat
    buffer: 14 calls per step instead of 14 per weight array.
    """

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        # id(param) -> (param, m, v, scratch, scratch)
        self._state: dict[int, tuple[np.ndarray, ...]] = {}
        self._t = 0

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad in params:
            state = self._state.get(id(param))
            if state is None or state[0] is not param:
                state = self._state[id(param)] = (
                    param, np.zeros_like(param), np.zeros_like(param),
                    np.empty_like(param), np.empty_like(param),
                )
            _, m, v, update, denom = state
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=update)
            v *= self.beta2
            np.square(grad, out=update)
            v += np.multiply(update, 1.0 - self.beta2, out=update)
            # lr * m_hat / (sqrt(v_hat) + eps), evaluated left to right
            np.divide(m, bias1, out=update)
            update *= self.learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            update /= denom
            if self.weight_decay:
                param *= 1.0 - self.learning_rate * self.weight_decay
            param -= update


class StepDecay:
    """Learning-rate schedule: multiply the rate by ``factor`` every
    ``every`` optimizer steps.  Wraps any optimizer."""

    def __init__(self, optimizer: Optimizer, every: int, factor: float = 0.5) -> None:
        if every < 1:
            raise ValueError("every must be positive")
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        if not hasattr(optimizer, "learning_rate"):
            raise ValueError("wrapped optimizer must expose learning_rate")
        self.optimizer = optimizer
        self.every = every
        self.factor = factor
        self._steps = 0

    @property
    def learning_rate(self) -> float:
        return self.optimizer.learning_rate

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.optimizer.step(params)
        self._steps += 1
        if self._steps % self.every == 0:
            self.optimizer.learning_rate *= self.factor
