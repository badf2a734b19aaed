"""Fully-connected ReLU classifier trained with mini-batch SGD.

Hidden layers of rectified linear units (the paper's network has four of
128) and a softmax output over speakers, minimizing cross-entropy.
Training is deterministic given (dataset, settings, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError


def relu(x):
    """max(0, x) elementwise."""
    return np.maximum(0.0, x)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class DnnModel:
    """Layer parameters plus optional input standardization statistics."""

    weights: list  # (fan_in, fan_out) matrices
    biases: list  # (fan_out,) vectors
    input_standardization: tuple | None = None  # (mean, std) arrays
    train_meta: dict = field(default_factory=dict)

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_size(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def hidden_sizes(self) -> tuple:
        return tuple(w.shape[1] for w in self.weights[:-1])


def init_model(input_size: int, hidden_sizes, output_size: int, seed: int = 0,
               input_standardization=None) -> DnnModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)
    sizes = [input_size, *hidden_sizes, output_size]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DnnModel(weights=weights, biases=biases,
                    input_standardization=input_standardization)


def _standardize(model: DnnModel, x: np.ndarray) -> np.ndarray:
    if model.input_standardization is None:
        return x
    mean, std = model.input_standardization
    return (x - mean) / std


def forward(model: DnnModel, x: np.ndarray):
    """Posterior over classes plus cached activations for backprop.

    Accepts a single vector or a (N, input_size) batch.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.input_size:
        raise DimensionError(f"input size {x.shape[1]} != model input {model.input_size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite network input")

    a = _standardize(model, x)
    activations = [a]
    pre_activations = []
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_activations.append(z)
        a = softmax(z) if k == last else relu(z)
        activations.append(a)

    posterior = activations[-1][0] if single else activations[-1]
    return posterior, {"activations": activations, "pre_activations": pre_activations}


def cross_entropy(posterior: np.ndarray, labels: np.ndarray) -> float:
    p = np.atleast_2d(posterior)
    labels = np.atleast_1d(labels)
    picked = p[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def gradients(model: DnnModel, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradients for one batch."""
    labels = np.atleast_1d(labels)
    posterior, cache = forward(model, x)
    posterior = np.atleast_2d(posterior)
    n = len(labels)
    loss = cross_entropy(posterior, labels)

    delta = posterior.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for k in range(len(model.weights) - 1, -1, -1):
        grad_w[k] = cache["activations"][k].T @ delta
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k].T) * (cache["pre_activations"][k - 1] > 0)
    return loss, grad_w, grad_b


def train(inputs, labels, hidden_sizes, output_size: int, *, learning_rate: float,
          epochs: int, batch_size: int, lr_decay: float, seed: int,
          input_standardization=None) -> DnnModel:
    """Mini-batch SGD on cross-entropy with per-epoch seeded shuffling; the
    learning rate is multiplied by lr_decay after every epoch."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 2 or len(inputs) == 0:
        raise ValueError("training set must be a non-empty (N, D) array")
    if len(inputs) != len(labels):
        raise ValueError("inputs and labels disagree on N")
    if labels.min() < 0 or labels.max() >= output_size:
        raise ValueError("labels out of range")

    model = init_model(inputs.shape[1], hidden_sizes, output_size,
                       seed=seed, input_standardization=input_standardization)
    rng = np.random.default_rng((seed, 0x5D))
    lr = learning_rate
    n = len(inputs)
    epoch_losses = []

    for epoch in range(epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grad_w, grad_b = gradients(model, inputs[idx], labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
            for k in range(len(model.weights)):
                model.weights[k] -= lr * grad_w[k]
                model.biases[k] -= lr * grad_b[k]
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
        lr *= lr_decay

    model.train_meta = {
        "epochs": epochs,
        "learning_rate": learning_rate,
        "lr_decay": lr_decay,
        "batch_size": batch_size,
        "seed": seed,
        "final_loss": epoch_losses[-1],
        "epoch_losses": epoch_losses,
    }
    return model
