"""Unit + property tests for the numpy NN framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Dense,
    Dropout,
    MeanSquaredError,
    ReLU,
    SGD,
    Sequential,
    SparseCategoricalCrossentropy,
    StackedDense,
    StackedSequential,
    StandardScaler,
    StepDecay,
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
        loss = MeanSquaredError()
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 2))
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

    def test_dropout_inference_identity(self):
        drop = Dropout(0.5)
        x = np.ones((3, 4))
        np.testing.assert_array_equal(drop.forward(x, training=False), x)

    def test_dropout_preserves_expectation(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((2000, 10))
        out = drop.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


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

    def test_mse(self):
        loss = MeanSquaredError()
        value, grad = loss.compute(np.array([[1.0], [3.0]]), np.array([0.0, 3.0]))
        assert value == pytest.approx(0.5)
        assert grad.shape == (2, 1)


class TestOptimizers:
    def _quadratic_descends(self, optimizer):
        param = np.array([[5.0]])
        for _ in range(300):
            grad = 2.0 * param  # d/dx of x^2
            optimizer.step([(param, grad)])
        return abs(float(param[0, 0]))

    def test_sgd_converges(self):
        assert self._quadratic_descends(SGD(learning_rate=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_descends(SGD(learning_rate=0.05, momentum=0.9)) < 1e-2

    def test_adam_converges(self):
        assert self._quadratic_descends(Adam(learning_rate=0.1)) < 1e-2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(weight_decay=-0.1)

    def test_weight_decay_shrinks_parameters(self):
        param_plain = np.array([[5.0]])
        param_decayed = np.array([[5.0]])
        plain = Adam(learning_rate=0.01)
        decayed = Adam(learning_rate=0.01, weight_decay=0.5)
        zero_grad = np.zeros_like(param_plain)
        for _ in range(100):
            plain.step([(param_plain, zero_grad)])
            decayed.step([(param_decayed, zero_grad)])
        assert abs(param_decayed[0, 0]) < abs(param_plain[0, 0])

    @pytest.mark.parametrize(
        "make", [lambda: Adam(learning_rate=0.01), lambda: SGD(0.01, momentum=0.9)]
    )
    def test_state_buffers_allocated_on_first_step_only(self, make, monkeypatch):
        import repro.nn.optimizers as optimizers

        calls = []
        real = np.zeros_like
        monkeypatch.setattr(
            optimizers.np, "zeros_like", lambda a: calls.append(a.shape) or real(a)
        )
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(4, 3)), rng.normal(size=(1, 3))]
        optimizer = make()
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
        adam = Adam(learning_rate=0.01, weight_decay=0.1)
        for t in range(1, 8):
            grad = rng.normal(size=param.shape)
            adam.step([(param, grad)])
            m = m * 0.9 + (1.0 - 0.9) * grad
            v = v * 0.999 + (1.0 - 0.999) * grad**2
            expected *= 1.0 - 0.01 * 0.1
            expected -= 0.01 * (m / (1.0 - 0.9**t)) / (
                np.sqrt(v / (1.0 - 0.999**t)) + adam.epsilon
            )
        assert np.array_equal(param, expected)

    def test_step_decay_halves_rate(self):
        schedule = StepDecay(Adam(learning_rate=0.1), every=10, factor=0.5)
        param = np.array([[1.0]])
        grad = np.zeros_like(param)
        for _ in range(10):
            schedule.step([(param, grad)])
        assert schedule.learning_rate == pytest.approx(0.05)
        for _ in range(10):
            schedule.step([(param, grad)])
        assert schedule.learning_rate == pytest.approx(0.025)

    def test_step_decay_still_converges(self):
        schedule = StepDecay(Adam(learning_rate=0.2), every=100, factor=0.5)
        assert self._quadratic_descends(schedule) < 1e-2

    def test_step_decay_validation(self):
        with pytest.raises(ValueError):
            StepDecay(Adam(), every=0)
        with pytest.raises(ValueError):
            StepDecay(Adam(), every=5, factor=1.5)


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

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        model = mlp_classifier(3, 2, hidden_layers=1, hidden_units=8)
        model.fit(x, y, iterations=20)
        path = tmp_path / "model.npz"
        model.save(path)
        clone = mlp_classifier(3, 2, hidden_layers=1, hidden_units=8, seed=99)
        clone.load(path)
        np.testing.assert_array_equal(model.predict(x), clone.predict(x))

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    @staticmethod
    def _dropout_model():
        rng = np.random.default_rng(0)
        return Sequential(
            [Dense(3, 8, rng=rng), ReLU(), Dropout(0.5, rng=rng), Dense(8, 2, rng=rng)]
        )

    @staticmethod
    def _assert_released(model):
        for layer in model.layers:
            for name in ("dW", "db", "_x", "_mask"):
                assert getattr(layer, name, None) is None, (type(layer).__name__, name)

    def test_fit_releases_gradients_and_caches(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        model = self._dropout_model()
        model.fit(x, rng.integers(0, 2, size=40), iterations=5, batch_size=8)
        self._assert_released(model)

    def test_failed_fit_releases_too(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        model = self._dropout_model()
        with pytest.raises(ValueError):  # the eval set has the wrong width
            model.fit(x, y, iterations=5, eval_set=(x[:, :2], y), eval_every=1)
        self._assert_released(model)

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

    def test_state_roundtrip(self):
        scaler = StandardScaler().fit(np.random.default_rng(0).normal(size=(20, 3)))
        clone = StandardScaler.from_state(scaler.state())
        x = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_allclose(scaler.transform(x), clone.transform(x))


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
