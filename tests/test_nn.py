"""Unit + property tests for the numpy NN framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Dense,
    ReLU,
    Sequential,
    SparseCategoricalCrossentropy,
    StackedDense,
    StackedSequential,
    StandardScaler,
    TrainingHistory,
    mlp_classifier,
    softmax,
)


def numeric_gradient(f, param, i, j, eps=1e-6):
    param[i, j] += eps
    plus = f()
    param[i, j] -= 2 * eps
    minus = f()
    param[i, j] += eps
    return (plus - minus) / (2 * eps)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((5, 4))).shape == (5, 3)

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(1)
        model = Sequential([Dense(4, 6, rng=rng), ReLU(), Dense(6, 3, rng=rng)])
        loss = SparseCategoricalCrossentropy()
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)

        out = model.forward(x, training=True)
        _, grad = loss.compute(out, y)
        model.backward(grad)

        dense = model.layers[0]
        f = lambda: loss.compute(model.forward(x), y)[0]
        for i, j in [(0, 0), (1, 3), (3, 5)]:
            numeric = numeric_gradient(f, dense.W, i, j)
            assert numeric == pytest.approx(dense.dW[i, j], abs=1e-6)

    def test_gradient_check_bias(self):
        rng = np.random.default_rng(2)
        model = Sequential([Dense(3, 2, rng=rng)])
        loss = SparseCategoricalCrossentropy()
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        out = model.forward(x, training=True)
        _, grad = loss.compute(out, y)
        model.backward(grad)
        dense = model.layers[0]
        eps = 1e-6
        dense.b[1] += eps
        plus, _ = loss.compute(model.forward(x), y)
        dense.b[1] -= 2 * eps
        minus, _ = loss.compute(model.forward(x), y)
        dense.b[1] += eps
        assert (plus - minus) / (2 * eps) == pytest.approx(dense.db[1], abs=1e-6)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_state_roundtrip(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        other = Dense(3, 2, rng=np.random.default_rng(9))
        other.load_state(layer.state())
        np.testing.assert_array_equal(layer.W, other.W)

    def test_state_shape_mismatch(self):
        layer = Dense(3, 2)
        with pytest.raises(ValueError):
            layer.load_state({"W": np.zeros((2, 2)), "b": np.zeros(2)})

    def test_fresh_layers_hold_no_gradient_buffers(self):
        model = mlp_classifier(7, 4, hidden_layers=5, hidden_units=128)
        for layer in [Dense(4, 3)] + model.layers[::2]:
            assert isinstance(layer, Dense)
            assert layer.dW is None and layer.db is None and layer._x is None


class TestStackedDense:
    def test_stack_is_the_layers_storage(self):
        layers = [Dense(3, 2, rng=np.random.default_rng(i)) for i in range(3)]
        originals = [(layer.W.copy(), layer.b.copy()) for layer in layers]
        stack = StackedDense.like(layers[0], 3)
        for s, layer in enumerate(layers):
            stack.adopt(s, layer)
        for s, (layer, (W, b)) in enumerate(zip(layers, originals)):
            assert np.shares_memory(layer.W, stack.W[s])
            assert np.shares_memory(layer.b, stack.b[s])
            assert np.array_equal(layer.W, W) and np.array_equal(layer.b, b)
        # In-place updates of a layer (load_state, an optimizer step) are
        # updates of the stack.
        donor = Dense(3, 2, rng=np.random.default_rng(9))
        layers[1].load_state(donor.state())
        x = np.random.default_rng(0).normal(size=(3, 4, 3))
        assert np.array_equal(stack.forward(x)[1], donor.forward(x[1]))


class TestActivations:
    def test_relu_forward_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        out = relu.forward(x, training=True)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
        grad = relu.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])

    def test_xent_perfect_prediction_near_zero(self):
        loss = SparseCategoricalCrossentropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        value, _ = loss.compute(logits, np.array([0, 1]))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_xent_target_validation(self):
        loss = SparseCategoricalCrossentropy()
        with pytest.raises(ValueError):
            loss.compute(np.zeros((2, 3)), np.array([0, 5]))


class TestOptimizers:
    def _quadratic_descends(self, optimizer):
        param = np.array([[5.0]])
        for _ in range(300):
            grad = 2.0 * param  # d/dx of x^2
            optimizer.step([(param, grad)])
        return abs(float(param[0, 0]))

    def test_adam_converges(self):
        assert self._quadratic_descends(Adam(learning_rate=0.1)) < 1e-2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)

    def test_state_buffers_allocated_on_first_step_only(self, monkeypatch):
        import repro.nn.optimizers as optimizers

        calls = []
        real = np.zeros_like
        monkeypatch.setattr(
            optimizers.np, "zeros_like", lambda a: calls.append(a.shape) or real(a)
        )
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(4, 3)), rng.normal(size=(1, 3))]
        optimizer = Adam(learning_rate=0.01)
        optimizer.step([(p, rng.normal(size=p.shape)) for p in params])
        first = len(calls)
        assert first > 0
        for _ in range(5):
            optimizer.step([(p, rng.normal(size=p.shape)) for p in params])
        assert len(calls) == first

    def test_adam_matches_textbook_update_bit_for_bit(self):
        """Lazy buffers change nothing: same floats as the plain recurrences."""
        rng = np.random.default_rng(1)
        param = rng.normal(size=(5, 4))
        expected = param.copy()
        m = np.zeros_like(expected)
        v = np.zeros_like(expected)
        adam = Adam(learning_rate=0.01)
        for t in range(1, 8):
            grad = rng.normal(size=param.shape)
            adam.step([(param, grad)])
            m = m * 0.9 + (1.0 - 0.9) * grad
            v = v * 0.999 + (1.0 - 0.999) * grad**2
            expected -= 0.01 * (m / (1.0 - 0.9**t)) / (
                np.sqrt(v / (1.0 - 0.999**t)) + 1e-8
            )
        assert np.array_equal(param, expected)


class TestSequential:
    def test_mlp_topology(self):
        model = mlp_classifier(7, 4, hidden_layers=5, hidden_units=128)
        dense_layers = [l for l in model.layers if isinstance(l, Dense)]
        assert len(dense_layers) == 6  # 5 hidden + output
        assert dense_layers[0].W.shape == (7, 128)
        assert dense_layers[-1].W.shape == (128, 4)

    def test_fit_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 5))
        y = (x[:, 0] > 0).astype(int)
        model = mlp_classifier(5, 2, hidden_layers=2, hidden_units=16)
        history = model.fit(x, y, iterations=200, batch_size=32)
        assert np.mean(history.loss[-20:]) < np.mean(history.loss[:20])
        assert model.accuracy(x, y) > 0.9

    def test_fit_seed_reproducible(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, size=100)
        runs = []
        for _ in range(2):
            model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=8, seed=5)
            model.fit(x, y, iterations=50, seed=7)
            runs.append(model.predict(x))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_eval_history(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(120, 3))
        y = rng.integers(0, 2, size=120)
        model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=8)
        history = model.fit(
            x, y, iterations=40, eval_set=(x, y), eval_every=10
        )
        assert history.eval_iterations == [10, 20, 30, 40]
        assert len(history.eval_accuracy) == 4

    def test_fit_validation(self):
        model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=4)
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 3)), np.zeros(5))
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("iterations", 0, "iterations must be positive, got 0"),
            ("iterations", -1, "iterations must be positive, got -1"),
            ("batch_size", 0, "batch_size must be positive, got 0"),
            ("batch_size", -4, "batch_size must be positive, got -4"),
        ],
    )
    def test_degenerate_training_settings_rejected(self, setting, value, message):
        # These used to train nothing (nan losses, untouched weights) and return.
        model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=4)
        before = {key: array.copy() for key, array in model.state().items()}
        with pytest.raises(ValueError, match=f"^{message}$"):
            model.fit(np.ones((8, 3)), np.zeros(8, dtype=int), **{setting: value})
        for key, array in model.state().items():
            np.testing.assert_array_equal(array, before[key])

    def test_predict_single_row(self):
        model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=4)
        assert model.predict(np.zeros(3)).shape == (1, 2)

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    @staticmethod
    def _small_model():
        rng = np.random.default_rng(0)
        return Sequential([Dense(3, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])

    @staticmethod
    def _assert_released(model):
        for layer in model.layers:
            for name in ("dW", "db", "_x", "_mask"):
                assert getattr(layer, name, None) is None, (type(layer).__name__, name)

    def test_fit_releases_gradients_and_caches(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        model = self._small_model()
        model.fit(x, rng.integers(0, 2, size=40), iterations=5, batch_size=8)
        self._assert_released(model)

    def test_failed_fit_releases_too(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        model = self._small_model()
        with pytest.raises(ValueError):  # the eval set has the wrong width
            model.fit(x, y, iterations=5, eval_set=(x[:, :2], y), eval_every=1)
        self._assert_released(model)

    def test_fit_that_raises_mid_loop_keeps_the_layers_own_arrays(self):
        """A raise inside the loop copies the steps taken so far into the
        arrays the layers held before the call, binds those again and
        releases every cache."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)

        class FailsThirdStep(Adam):
            calls = 0

            def step(self, params):
                FailsThirdStep.calls += 1
                if FailsThirdStep.calls == 3:
                    raise RuntimeError("boom")
                super().step(params)

        model, two_steps = self._small_model(), self._small_model()
        dense = [layer for layer in model.layers if isinstance(layer, Dense)]
        own = [(layer.W, layer.b) for layer in dense]
        with pytest.raises(RuntimeError, match="^boom$"):
            model.fit(x, y, iterations=5, batch_size=8, optimizer=FailsThirdStep())
        assert all(
            layer.W is W and layer.b is b for layer, (W, b) in zip(dense, own)
        )
        self._assert_released(model)
        two_steps.fit(x, y, iterations=2, batch_size=8)
        for key, value in two_steps.state().items():
            assert model.state()[key].tobytes() == value.tobytes(), key

    def test_fit_on_stacked_models_writes_through(self):
        """Training a model after it was fused updates the stack: no
        stale copy exists to diverge from."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        models = [mlp_classifier(3, 2, hidden_layers=1, hidden_units=8, seed=i)
                  for i in range(2)]
        stack = StackedSequential.from_models(models)
        models[0].fit(x, y, iterations=10)
        logits = stack.forward_batched(np.stack([x, x]))
        for s, model in enumerate(models):
            assert np.array_equal(logits[s], model.predict(x))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda state: state.pop("layer2.W"), "missing model state key 'layer2.W'"),
            (lambda state: state.pop("layer0.b"), "missing model state key 'layer0.b'"),
            (
                lambda state: state.update({"layer1.W": np.zeros((8, 8))}),
                "unexpected model state key 'layer1.W'",
            ),
            (
                lambda state: state.update({"layer9.W": np.zeros((8, 8))}),
                "unexpected model state key 'layer9.W'",
            ),
        ],
    )
    def test_load_state_rejects_incomplete_or_foreign_state(self, edit, message):
        """Layer 1 is a ReLU: stateless layers have no keys, and a key for
        one is as foreign as a key for a layer that does not exist."""
        state = mlp_classifier(3, 2, hidden_layers=1, hidden_units=8, seed=1).state()
        edit(state)
        model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=8, seed=2)
        before = {key: value.copy() for key, value in model.state().items()}
        with pytest.raises(ValueError, match=f"^{message}$"):
            model.load_state(state)
        for key, value in model.state().items():
            np.testing.assert_array_equal(value, before[key])


class TestScaler:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=5.0, scale=3.0, size=(500, 4))
        scaled = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros(5))


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 12),
    n_in=st.integers(1, 8),
    n_out=st.integers(1, 6),
)
def test_dense_linearity(batch, n_in, n_out):
    """Dense layers are linear: f(a+b) = f(a) + f(b) - f(0)."""
    layer = Dense(n_in, n_out, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    a = rng.normal(size=(batch, n_in))
    b = rng.normal(size=(batch, n_in))
    zero = layer.forward(np.zeros((batch, n_in)))
    np.testing.assert_allclose(
        layer.forward(a + b), layer.forward(a) + layer.forward(b) - zero, atol=1e-9
    )


# ------------------------------------------------------------------ flat fit
# ``Sequential.fit`` trains one flat parameter buffer.  The reference below
# is the per-parameter loop it replaced, with a textbook Adam (one
# temporary per operation, one state entry per weight array): the two must
# agree bit for bit.


class TextbookAdam:
    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = 0.9, 0.999, 1e-8
        self.moments, self.t = {}, 0

    def step(self, params):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for param, grad in params:
            m, v = self.moments.setdefault(
                id(param), (np.zeros_like(param), np.zeros_like(param))
            )
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def reference_fit(model, x, y, iterations, batch_size, optimizer, seed,
                  eval_set=None, eval_every=0):
    """The per-parameter training loop: one optimizer entry per W and b."""
    loss = SparseCategoricalCrossentropy()
    rng = np.random.default_rng(seed)
    history = TrainingHistory()
    dense = [layer for layer in model.layers if isinstance(layer, Dense)]
    n = x.shape[0]
    order = rng.permutation(n)
    cursor = 0
    for it in range(iterations):
        if cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        batch = order[cursor : cursor + batch_size]
        cursor += batch_size
        value, grad = loss.compute(model.forward(x[batch], training=True), y[batch])
        model.backward(grad)
        optimizer.step([pair for layer in dense
                        for pair in ((layer.W, layer.dW), (layer.b, layer.db))])
        history.loss.append(value)
        if eval_every and (it + 1) % eval_every == 0:
            history.eval_iterations.append(it + 1)
            history.eval_accuracy.append(model.accuracy(*eval_set))
    for layer in model.layers:
        layer.release()
    return history


def layered_model(seed, n_features, widths, n_out):
    rng = np.random.default_rng(seed)
    layers, width_in = [], n_features
    for width in widths:
        layers += [Dense(width_in, width, rng=rng), ReLU()]
        width_in = width
    return Sequential(layers + [Dense(width_in, n_out, rng=rng)])


@pytest.mark.parametrize("full_batch", [False, True])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 24),
    n_features=st.integers(1, 4),
    widths=st.lists(st.integers(1, 9), max_size=3),
    n_classes=st.integers(2, 4),
    iterations=st.integers(1, 12),
    batch_fraction=st.floats(0.0, 1.0),
    eval_every=st.integers(0, 4),
)
def test_flat_fit_is_the_per_parameter_fit(
    full_batch, seed, n, n_features, widths, n_classes, iterations,
    batch_fraction, eval_every,
):
    """Weights, ``history.loss`` and ``eval_accuracy`` bit for bit, over
    Dense/ReLU stacks trained with Adam and cross-entropy, and batches
    that cover the data (``batch_size >= n``) or do not."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    y = rng.integers(0, n_classes, size=n)
    if full_batch:
        batch_size = n + int(batch_fraction * 8)
    else:
        batch_size = 1 + int(batch_fraction * (n - 2))
    model = layered_model(seed, n_features, widths, n_classes)
    reference = layered_model(seed, n_features, widths, n_classes)

    history = model.fit(
        x, y, iterations=iterations, batch_size=batch_size,
        optimizer=Adam(learning_rate=0.01), seed=seed, eval_set=(x, y),
        eval_every=eval_every,
    )
    expected = reference_fit(
        reference, x, y, iterations, batch_size, TextbookAdam(0.01), seed,
        eval_set=(x, y), eval_every=eval_every,
    )
    assert np.array(history.loss).tobytes() == np.array(expected.loss).tobytes()
    assert history.eval_iterations == expected.eval_iterations
    assert history.eval_accuracy == expected.eval_accuracy
    state = model.state()
    for key, value in reference.state().items():
        assert state[key].tobytes() == value.tobytes(), key
