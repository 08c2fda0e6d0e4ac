"""Gradient-descent optimizers.

The paper trains with Adam (Kingma & Ba); SGD-with-momentum is provided for
the optimizer ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Optimizer(ABC):
    """Updates parameters in place from gradients stored by the layers."""

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
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for param, grad in params:
            if self.momentum > 0.0:
                vel = self._velocity.get(id(param))
                if vel is None:  # first sight only: setdefault's argument is eager
                    vel = self._velocity[id(param)] = np.zeros_like(param)
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
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad in params:
            m = self._m.get(id(param))
            if m is None:  # first sight only: setdefault's argument is eager
                m = self._m[id(param)] = np.zeros_like(param)
                self._v[id(param)] = np.zeros_like(param)
            v = self._v[id(param)]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            if self.weight_decay:
                param *= 1.0 - self.learning_rate * self.weight_decay
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


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
