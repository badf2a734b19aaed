"""Fully-connected ReLU classifier trained with mini-batch SGD.

Hidden layers of rectified linear units (the paper's network has four of
128) and a softmax output over speakers, minimizing cross-entropy.
Training is deterministic given (dataset, settings, seed).

``train`` checks and standardizes the training set once and runs each SGD
step in place: weights and biases are views into one flat parameter vector,
gradients into one flat gradient vector (the update is ``grad *= lr;
params -= grad``), and activations, ReLU masks and deltas go to buffers kept
per batch size. A step does the float operations of ``gradients`` in their
order, so training is bit-identical to a loop over ``gradients``, which
stays as the reference; ``forward`` serves inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, NetworkInputError


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
        raise NetworkInputError("non-finite network input")

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


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive C-ordered blocks of a 1-D array, one view per shape."""
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


class _Batch:
    """Gather, activation, mask and delta buffers for batches of nb rows."""

    def __init__(self, nb: int, sizes):
        self.acts = [np.empty((nb, s)) for s in sizes]  # input, hidden, posterior
        self.masks = [np.empty((nb, s), dtype=bool) for s in sizes[1:-1]]
        self.deltas = [np.empty((nb, s)) for s in sizes[1:-1]]
        self.column = np.empty((nb, 1))  # row max, then row sum
        self.posterior = self.acts[-1].reshape(-1)  # flat view
        self.picked_minus_one = np.empty(nb)


def train(inputs, labels, hidden_sizes, output_size: int, *, learning_rate: float,
          epochs: int, batch_size: int, lr_decay: float, seed: int,
          input_standardization=None) -> DnnModel:
    """Mini-batch SGD on cross-entropy with per-epoch seeded shuffling; the
    learning rate is multiplied by lr_decay after every epoch. Bit-identical
    to ``gradients(model, x[idx], labels[idx])`` and an update per batch."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 2 or len(inputs) == 0:
        raise NetworkInputError("training set must be a non-empty (N, D) array")
    if len(inputs) != len(labels):
        raise NetworkInputError("inputs and labels disagree on N")
    if labels.min() < 0 or labels.max() >= output_size:
        raise NetworkInputError("labels out of range")

    model = init_model(inputs.shape[1], hidden_sizes, output_size,
                       seed=seed, input_standardization=input_standardization)
    if not np.all(np.isfinite(inputs)):
        raise NetworkInputError("non-finite network input")
    x_all = _standardize(model, inputs)

    # every weight and bias is a view of params, every gradient one of grad
    layers = [a for pair in zip(model.weights, model.biases) for a in pair]
    params = np.concatenate([a.ravel() for a in layers])
    grad = np.empty_like(params)
    shapes = [a.shape for a in layers]
    views = _views(params, shapes)
    weights, biases = model.weights, model.biases = views[0::2], views[1::2]
    grad_views = _views(grad, shapes)
    grad_w, grad_b = grad_views[0::2], grad_views[1::2]
    last = len(weights) - 1

    rng = np.random.default_rng((seed, 0x5D))
    lr = learning_rate
    n = len(inputs)
    sizes = [inputs.shape[1], *hidden_sizes, output_size]
    batches = {}
    # flat position of row i's class-0 probability within its batch
    row_offsets = (np.arange(n) % batch_size) * output_size
    true_at = np.empty(n, dtype=np.intp)  # flat position of each row's true class
    picked = np.empty(n)  # posterior of the true class, in epoch order
    epoch_losses = []

    for epoch in range(epochs):
        order = rng.permutation(n)
        np.add(row_offsets, np.take(labels, order), out=true_at)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            nb = len(idx)
            if nb not in batches:
                batches[nb] = _Batch(nb, sizes)
            buf = batches[nb]
            acts = buf.acts
            a = np.take(x_all, idx, axis=0, out=acts[0], mode="clip")
            for k in range(last):
                z = np.matmul(a, weights[k], out=acts[k + 1])
                np.add(z, biases[k], out=z)
                np.greater(z, 0, out=buf.masks[k])
                a = np.maximum(0.0, z, out=z)
            p = np.matmul(a, weights[last], out=acts[-1])
            np.add(p, biases[last], out=p)
            np.maximum.reduce(p, axis=-1, keepdims=True, out=buf.column)
            np.subtract(p, buf.column, out=p)
            np.exp(p, out=p)
            np.add.reduce(p, axis=-1, keepdims=True, out=buf.column)
            np.divide(p, buf.column, out=p)

            # delta = (posterior - one_hot) / nb
            at, picked_here = true_at[start:start + nb], picked[start:start + nb]
            np.take(buf.posterior, at, out=picked_here)
            np.subtract(picked_here, 1.0, out=buf.picked_minus_one)
            np.put(buf.posterior, at, buf.picked_minus_one)
            delta = np.divide(p, nb, out=p)
            for k in range(last, -1, -1):
                np.matmul(acts[k].T, delta, out=grad_w[k])
                np.add.reduce(delta, axis=0, out=grad_b[k])
                if k > 0:
                    d = np.matmul(delta, weights[k].T, out=buf.deltas[k - 1])
                    delta = np.multiply(d, buf.masks[k - 1], out=d)
            np.multiply(grad, lr, out=grad)
            np.subtract(params, grad, out=params)

        # each batch's mean cross-entropy, as cross_entropy computes it
        log_p = np.log(np.maximum(picked, 1e-300))
        batch_losses = [-np.mean(log_p[s:s + batch_size]) for s in range(0, n, batch_size)]
        if not np.all(np.isfinite(batch_losses)):
            raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
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
