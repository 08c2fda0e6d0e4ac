"""Adam (Kingma & Ba), the optimizer the paper trains both predictors with.

The learning rate, moment decays and the denominator's epsilon are
Keras's defaults, which the paper does not override.  Only the learning
rate is settable, for tests that need a larger step.
"""

from __future__ import annotations

import numpy as np

LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam with bias correction (the paper's training algorithm).

    Updates parameters in place from gradients stored by the layers.
    Per-parameter state is keyed by the parameter array and holds a
    reference to it, so a freed array's id never inherits its state.

    A step is 14 in-place elementwise numpy calls per parameter array, two
    scratch buffers standing in for the textbook's temporaries, in the
    textbook's order of operations: the floats are the same.  On the
    bias vectors and thin edge layers of the paper's MLP a call costs its
    dispatch, not its arithmetic, so ``Sequential.fit`` hands it one flat
    buffer: 14 calls per step instead of 14 per weight array.
    """

    def __init__(self, learning_rate: float = LEARNING_RATE) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        # id(param) -> (param, m, v, scratch, scratch)
        self._state: dict[int, tuple[np.ndarray, ...]] = {}
        self._t = 0

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one update; ``params`` is [(parameter, gradient), ...]."""
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        for param, grad in params:
            state = self._state.get(id(param))
            if state is None or state[0] is not param:
                state = self._state[id(param)] = (
                    param, np.zeros_like(param), np.zeros_like(param),
                    np.empty_like(param), np.empty_like(param),
                )
            _, m, v, update, denom = state
            m *= BETA1
            m += np.multiply(grad, 1.0 - BETA1, out=update)
            v *= BETA2
            np.square(grad, out=update)
            v += np.multiply(update, 1.0 - BETA2, out=update)
            # lr * m_hat / (sqrt(v_hat) + eps), evaluated left to right
            np.divide(m, bias1, out=update)
            update *= self.learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPSILON
            update /= denom
            param -= update
