"""Sequential model container with a Keras-like training loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.nn.layers import Dense, Dropout, Layer, ReLU, StackedDense
from repro.nn.losses import Loss, SparseCategoricalCrossentropy, softmax
from repro.nn.optimizers import Adam, Optimizer


@dataclass
class TrainingHistory:
    """Per-iteration training record (one iteration = one mini-batch step).

    ``eval_iterations``/``eval_accuracy`` record periodic held-out
    evaluations — the data behind the paper's accuracy-vs-iterations curves
    (Fig. 7a / Fig. 8a).
    """

    loss: list[float] = field(default_factory=list)
    eval_iterations: list[int] = field(default_factory=list)
    eval_accuracy: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.loss)


class Sequential:
    """A stack of layers trained with mini-batch gradient descent.

    Mirrors the slice of the Keras API the paper uses: construct, ``fit``
    with a loss and optimizer, ``predict_classes``, save/load.
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("model needs at least one layer")
        self.layers = layers

    # ---------------------------------------------------------------- fwd/bwd
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        params: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    # ---------------------------------------------------------------- training
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        iterations: int = 200,
        batch_size: int = 64,
        loss: Loss | None = None,
        optimizer: Optimizer | None = None,
        seed: int = 0,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
        eval_every: int = 0,
    ) -> TrainingHistory:
        """Train for a fixed number of mini-batch iterations.

        The paper reports training in "iterations" (600 for the quality
        model, 60 for latency), so the loop is iteration-based rather than
        epoch-based; batches are sampled with reshuffling each pass.
        Gradients and activation caches exist only inside this call: a
        model that is not training holds its weights and nothing else.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if iterations < 1:
            raise ValueError(f"iterations must be positive, got {iterations}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        loss = loss or SparseCategoricalCrossentropy()
        optimizer = optimizer or Adam()
        rng = np.random.default_rng(seed)
        history = TrainingHistory()

        n = x.shape[0]
        order = rng.permutation(n)
        cursor = 0
        try:
            for it in range(iterations):
                if cursor + batch_size > n:
                    order = rng.permutation(n)
                    cursor = 0
                batch = order[cursor : cursor + batch_size]
                cursor += batch_size
                outputs = self.forward(x[batch], training=True)
                value, grad = loss.compute(outputs, y[batch])
                self.backward(grad)
                optimizer.step(self.parameters())
                history.loss.append(value)
                if eval_every and eval_set is not None and (it + 1) % eval_every == 0:
                    history.eval_iterations.append(it + 1)
                    history.eval_accuracy.append(self.accuracy(*eval_set))
        finally:
            for layer in self.layers:
                layer.release()
        return history

    # ---------------------------------------------------------------- inference
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Raw logits."""
        return self.forward(x, training=False)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.predict(x))

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict_classes(x) == np.asarray(y)))

    # ---------------------------------------------------------------- persistence
    def state(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for key, value in layer.state().items():
                state[f"layer{i}.{key}"] = value
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state` output; a missing key (which would keep that
        layer's current weights) or a foreign one is a ``ValueError``."""
        expected = self.state().keys()
        for problem, keys in (
            ("missing", expected - state.keys()),
            ("unexpected", state.keys() - expected),
        ):
            if keys:
                raise ValueError(f"{problem} model state key {min(keys)!r}")
        for i, layer in enumerate(self.layers):
            prefix = f"layer{i}."
            layer.load_state(
                {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
            )

    def save(self, path: str | Path) -> None:
        np.savez(path, **self.state())

    def load(self, path: str | Path) -> None:
        with np.load(path) as data:
            self.load_state({key: data[key] for key in data.files})


def _topology(model: Sequential) -> list[tuple[type, tuple[int, ...]]]:
    """Layer types and weight shapes: what stacked models must share."""
    return [(type(layer), getattr(layer, "W", np.empty(0)).shape) for layer in model.layers]


class StackedSequential:
    """S same-architecture :class:`Sequential` models fused for inference.

    The per-shard predictors all share one topology (the paper's 5x128
    ReLU MLP), so their Dense weights stack into ``[S, in, out]`` tensors
    and one batched matmul per layer evaluates every model at once —
    replacing S full forward passes with a handful of numpy calls.

    **Equivalence guarantee.**  ``forward_batched(x)[s]`` is bit-identical
    to ``models[s].forward(x[s])`` for any row batch: ``np.matmul`` applies
    the same 2-D product per stack slice, and ReLU/softmax are elementwise.
    ``tests/test_batched_inference.py`` pins this down with Hypothesis.

    Dropout layers are skipped (identity at inference time, matching
    ``Sequential.forward(training=False)``).  The source models' Dense
    ``W``/``b`` become views of the stack (:meth:`StackedDense.adopt`).
    """

    def __init__(self, stacked: list[StackedDense | None]) -> None:
        """``stacked``: one entry per source layer — a :class:`StackedDense`
        for Dense layers, ``None`` for ReLU activations."""
        if not stacked:
            raise ValueError("stacked model needs at least one layer")
        self.ops = stacked
        dense = [op for op in stacked if op is not None]
        if not dense:
            raise ValueError("stacked model needs at least one Dense layer")
        self.n_stacked = dense[0].n_stacked

    @classmethod
    def from_models(
        cls, models: Iterable[Sequential], n: int | None = None
    ) -> "StackedSequential":
        """Fuse ``n`` same-architecture models (default: all of a list).

        The stacks are allocated from the first model and each model's
        Dense layers are adopted into them as it is read, so fusing a
        generator never holds two models' weights outside the stacks.
        """
        if n is None:
            models = list(models)
            n = len(models)
        stack: StackedSequential | None = None
        count = 0
        for count, model in enumerate(models, 1):
            layers = [layer for layer in model.layers if not isinstance(layer, Dropout)]
            if stack is None:
                topology = _topology(model)
                if not all(isinstance(layer, (Dense, ReLU)) for layer in layers):
                    raise ValueError("only Dense, ReLU and Dropout layers stack")
                stack = cls([StackedDense.like(layer, n) if isinstance(layer, Dense)
                             else None for layer in layers])
            if _topology(model) != topology or count > n:
                raise ValueError(f"need {n} models of one architecture to stack")
            for op, layer in zip(stack.ops, layers):
                if op is not None and isinstance(layer, Dense):
                    op.adopt(count - 1, layer)
        if stack is None or count < n:
            raise ValueError(f"need {n} models of one architecture to stack, got {count}")
        return stack

    def forward_batched(self, x: np.ndarray) -> np.ndarray:
        """Fused forward: ``x[S, B, features] -> logits[S, B, classes]``.

        An extra query axis after the stack axis evaluates a whole query
        batch with one matmul per layer: ``x[S, NQ, B, features] ->
        logits[S, NQ, B, classes]``.  Because ``np.matmul`` runs the
        identical 2-D product per stack slice, every ``[s, q]`` slice is
        bit-identical to evaluating it alone.
        """
        # A C-contiguous input keeps every intermediate C-contiguous
        # (ufuncs allocate output in K-order, so a transposed-view input
        # would propagate its slow layout through all six layers); the
        # copy is exact, so bit-identity is unaffected.
        out = np.ascontiguousarray(x, dtype=np.float64)
        if out.ndim not in (3, 4) or out.shape[0] != self.n_stacked:
            raise ValueError(
                f"expected x[{self.n_stacked}, (queries,) batch, features], "
                f"got {out.shape}"
            )
        for i, op in enumerate(self.ops):
            if op is None:
                # In-place ReLU: the buffer is always this pass's own
                # intermediate (op 0 is Dense), so nothing aliases it.
                out = np.maximum(out, 0.0, out=out) if i else np.maximum(out, 0.0)
            else:
                out = op.forward(out)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Per-model softmax probabilities, shape ``[S, B, classes]``."""
        return softmax(self.forward_batched(x))

    def predict_classes(self, x: np.ndarray) -> np.ndarray:
        """Per-model argmax classes over logits, shape ``[S, B]``."""
        return np.argmax(self.forward_batched(x), axis=-1)


def mlp_classifier(
    n_features: int,
    n_classes: int,
    hidden_layers: int = 5,
    hidden_units: int = 128,
    seed: int = 0,
) -> Sequential:
    """The paper's predictor architecture.

    "a NN model with 5-hidden layers ... each hidden layer has 128 neurons
    and uses the ReLU activation function" (Section III-B).  The output
    layer emits logits; softmax lives in the loss.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    width_in = n_features
    for _ in range(hidden_layers):
        layers.append(Dense(width_in, hidden_units, rng=rng))
        layers.append(ReLU())
        width_in = hidden_units
    layers.append(Dense(width_in, n_classes, rng=rng))
    return Sequential(layers)
