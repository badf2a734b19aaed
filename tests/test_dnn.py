"""ReLU network: forward pass, backprop gradients, SGD training."""

import numpy as np
import pytest

from emosid.dnn import (
    DnnModel,
    cross_entropy,
    forward,
    gradients,
    init_model,
    relu,
    softmax,
    train,
)
from emosid.errors import ConfigError, DimensionError, DivergenceError
from emosid.pipeline import PipelineConfig

from conftest import reference_train


class TestRelu:
    def test_negative(self):
        assert relu(-3.0) == 0.0

    def test_positive(self):
        assert relu(5.0) == 5.0

    def test_zero_boundary(self):
        assert relu(0.0) == 0.0

    def test_elementwise(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


class TestSoftmax:
    def test_zeros_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_sums_to_one(self, rng):
        p = softmax(rng.standard_normal((20, 7)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_translation_invariant(self, rng):
        logits = rng.standard_normal(5)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.0), atol=1e-12)


class TestForward:
    def test_zero_parameters_uniform_posterior(self):
        model = DnnModel(weights=[np.zeros((4, 8)), np.zeros((8, 3))],
                         biases=[np.zeros(8), np.zeros(3)])
        p, _ = forward(model, np.ones(4))
        np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-15)

    def test_posterior_is_distribution(self, rng):
        model = init_model(6, (16, 16), 4, seed=1)
        p, _ = forward(model, rng.standard_normal((10, 6)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0) and np.all(p < 1)

    def test_batch_matches_single(self, rng):
        model = init_model(5, (8,), 3, seed=2)
        xs = rng.standard_normal((4, 5))
        batch, _ = forward(model, xs)
        for i, x in enumerate(xs):
            single, _ = forward(model, x)
            np.testing.assert_allclose(batch[i], single, atol=1e-15)

    def test_standardization_applied(self, rng):
        mean, std = np.full(3, 5.0), np.full(3, 2.0)
        m_std = init_model(3, (8,), 2, seed=3, input_standardization=(mean, std))
        m_raw = init_model(3, (8,), 2, seed=3)
        x = rng.standard_normal(3)
        a, _ = forward(m_std, x)
        b, _ = forward(m_raw, (x - mean) / std)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_size_mismatch(self):
        model = init_model(4, (8,), 2)
        with pytest.raises(DimensionError):
            forward(model, np.zeros(5))

    def test_non_finite_input(self):
        model = init_model(2, (4,), 2)
        with pytest.raises(ValueError):
            forward(model, np.array([np.nan, 0.0]))


class TestGradients:
    def test_finite_difference_check(self):
        """Analytic backprop vs central differences on a small random model.

        Parameters whose perturbation crosses a ReLU kink (pre-activation
        within 1e-6 of zero) are excluded; the subgradient at 0 is 0 by
        convention and finite differences disagree there.
        """
        rng = np.random.default_rng(5)
        model = init_model(5, (7, 6), 3, seed=11)
        x = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 1, 2])
        eps = 1e-5

        _, cache = forward(model, x)
        kink_free = [np.min(np.abs(z)) > 1e-6 for z in cache["pre_activations"][:-1]]
        assert all(kink_free), "test data hit a kink; change the seed"

        loss, grad_w, grad_b = gradients(model, x, labels)
        worst = 0.0
        for k in range(len(model.weights)):
            for arr, grad in ((model.weights[k], grad_w[k]),
                              (model.biases[k], grad_b[k])):
                flat = arr.ravel()
                gflat = grad.ravel()
                idx = rng.choice(len(flat), size=min(25, len(flat)), replace=False)
                for j in idx:
                    orig = flat[j]
                    flat[j] = orig + eps
                    lp = gradients(model, x, labels)[0]
                    flat[j] = orig - eps
                    lm = gradients(model, x, labels)[0]
                    flat[j] = orig
                    fd = (lp - lm) / (2 * eps)
                    err = abs(gflat[j] - fd) / max(abs(fd), 1e-6)
                    worst = max(worst, err)
        assert worst < 1e-4, f"max relative gradient error {worst}"

    def test_loss_matches_cross_entropy(self, rng):
        model = init_model(3, (8,), 4, seed=0)
        x = rng.standard_normal((6, 3))
        labels = rng.integers(0, 4, 6)
        loss, _, _ = gradients(model, x, labels)
        p, _ = forward(model, x)
        assert abs(loss - cross_entropy(p, labels)) < 1e-12


class TestTrain:
    def test_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((100, 2)) * 0.3 + [2, 2]
        b = rng.standard_normal((100, 2)) * 0.3 + [-2, -2]
        x = np.vstack([a, b])
        y = np.array([0] * 100 + [1] * 100)
        model = train(x, y, (128, 128, 128, 128), 2, learning_rate=0.1, epochs=200,
                      batch_size=32, lr_decay=0.98, seed=1)
        p, _ = forward(model, x)
        assert np.mean(p.argmax(axis=1) == y) == 1.0

    def test_memorizes_single_example(self):
        x = np.array([[0.5, -0.25, 1.0]])
        y = np.array([1])
        model = train(x, y, (16,), 3, learning_rate=0.5, epochs=400, batch_size=1,
                      lr_decay=1.0, seed=0)
        assert model.train_meta["final_loss"] < 1e-3

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 3, 50)
        sgd = dict(learning_rate=0.05, epochs=10, batch_size=32, lr_decay=0.98, seed=9)
        a = train(x, y, (8, 8), 3, **sgd)
        b = train(x, y, (8, 8), 3, **sgd)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            np.testing.assert_array_equal(ba, bb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_names_epoch(self, rng):
        x = rng.standard_normal((40, 3)) * 100
        y = rng.integers(0, 2, 40)
        with pytest.raises(DivergenceError, match="epoch"):
            train(x, y, (8,), 2, learning_rate=1e6, epochs=20, batch_size=32,
                  lr_decay=0.98, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 3)), np.zeros(0, dtype=int), (8,), 2, learning_rate=0.01,
                  epochs=1, batch_size=32, lr_decay=0.98, seed=0)

    def test_default_architecture(self, rng):
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 2, 40)
        hidden = PipelineConfig().hidden_sizes
        assert hidden == (128, 128, 128, 128)
        model = train(x, y, hidden, 2, learning_rate=0.01, epochs=1, batch_size=32,
                      lr_decay=0.98, seed=0)
        assert model.hidden_sizes == (128, 128, 128, 128)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            PipelineConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(lr_decay=0.0)


# case -> (rows, input width, batch size, hidden sizes, standardized inputs)
REFERENCE_CASES = {
    "last-partial-batch": (70, 5, 32, (16, 16), True),
    "batch-of-one": (65, 5, 32, (16, 16), True),
    "batch-covers-set": (20, 5, 32, (16, 16), True),
    "unstandardized": (70, 5, 32, (16, 16), False),
    "one-hidden-layer": (70, 5, 32, (16,), True),
    "no-hidden-layer": (70, 5, 32, (), True),
    "likelihood-vector-width": (70, 60, 32, (128, 128, 128, 128), True),
    "pooled-stats-width": (70, 26, 32, (128, 128, 128, 128), True),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_train_matches_gradients_loop_byte_for_byte(case):
    """The flat-buffer SGD loop and a loop over dnn.gradients give the same
    weights, biases and train_meta, bit for bit."""
    n, width, batch, hidden, standardized = REFERENCE_CASES[case]
    rng = np.random.default_rng(n * width)
    x = rng.standard_normal((n, width)) * 3.0 + 1.0
    y = rng.integers(0, 10, n)
    std = (x.mean(axis=0), x.std(axis=0)) if standardized else None
    sgd = dict(learning_rate=0.3, epochs=4, batch_size=batch, lr_decay=0.98, seed=7,
               input_standardization=std)
    got = train(x, y, hidden, 10, **sgd)
    want = reference_train(x, y, hidden, 10, **sgd)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.train_meta == want.train_meta


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_epoch_matches_gradients_loop(rng):
    x = rng.standard_normal((40, 3)) * 100
    y = rng.integers(0, 2, 40)
    sgd = dict(learning_rate=1e6, epochs=20, batch_size=32, lr_decay=0.98, seed=0)
    with pytest.raises(DivergenceError) as want:
        reference_train(x, y, (8,), 2, **sgd)
    with pytest.raises(DivergenceError) as got:
        train(x, y, (8,), 2, **sgd)
    assert str(got.value) == str(want.value)


def test_train_refuses_non_finite_input():
    x = np.zeros((4, 2))
    x[3, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        train(x, np.zeros(4, dtype=int), (4,), 2, learning_rate=0.1, epochs=1,
              batch_size=2, lr_decay=1.0, seed=0)
