"""Shared fixtures: tiny corpora and deterministic random data."""

import json
import struct

import numpy as np
import pytest

from emosid.audio import AudioClip
from emosid.containers import TAGS_MAGIC
from emosid.corpus import SynthSpec, generate_synthetic
from emosid.dnn import gradients, init_model
from emosid.errors import DivergenceError
from emosid.errors import DimensionError, EmptyUtteranceError
from emosid.gmm import GmmTag, TagStore
from emosid.pipeline import PipelineConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def sine_clip(freq_hz, rate_hz, duration_s=1.0, amplitude=0.5, source_id="sine"):
    t = np.arange(int(round(duration_s * rate_hz))) / rate_hz
    return AudioClip(samples=(amplitude * np.sin(2 * np.pi * freq_hz * t)),
                     sample_rate_hz=rate_hz, source_id=source_id)


def stack_tags(tags, speakers, emotions):
    """A TagStore of GmmTags given in (speaker x emotion) roster order, under
    the default front end."""
    return TagStore(speaker_roster=list(speakers), emotion_roster=list(emotions),
                    weights=np.stack([t.weights for t in tags]),
                    means=np.stack([t.means for t in tags]),
                    variances=np.stack([t.variances for t in tags]),
                    train_meta=[t.train_meta for t in tags],
                    front_end=PipelineConfig().front_end())


def tag_at(store, k):
    """Row k of a store as a GmmTag, for the per-tag reference functions."""
    return GmmTag(weights=store.weights[k], means=store.means[k],
                  variances=store.variances[k], train_meta=store.train_meta[k])


def v1_tag_store(store):
    """The bytes of a store in the version-1 layout: one header record and
    three arrays per tag."""
    labels = [[spk, emo] for spk in store.speaker_roster for emo in store.emotion_roster]
    header = {"speaker_roster": store.speaker_roster, "emotion_roster": store.emotion_roster,
              "tags": [{"label": label, "num_components": store.means.shape[1],
                        "dim": store.dim, "train_meta": meta}
                       for label, meta in zip(labels, store.train_meta)]}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = [a[k] for k in range(len(store)) for a in (store.weights, store.means,
                                                         store.variances)]
    return (TAGS_MAGIC + struct.pack("<II", 1, len(head)) + head
            + b"".join(a.astype("<f8").tobytes() for a in arrays))


def v2_tag_store(store):
    """The bytes of a store in the version-2 layout: today's, with no
    front_end in the header."""
    header = {"speaker_roster": store.speaker_roster, "emotion_roster": store.emotion_roster,
              "shape": list(store.means.shape), "train_meta": store.train_meta}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = (store.weights, store.means, store.variances)
    return (TAGS_MAGIC + struct.pack("<II", 2, len(head)) + head
            + b"".join(a.astype("<f8").tobytes() for a in arrays))


def reference_train(inputs, labels, hidden_sizes, output_size, *, learning_rate, epochs,
                    batch_size, lr_decay, seed, input_standardization=None):
    """dnn.train as one call of dnn.gradients per batch: the oracle the flat-buffer
    loop must match byte for byte."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
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
    model.train_meta = {"epochs": epochs, "learning_rate": learning_rate,
                        "lr_decay": lr_decay, "batch_size": batch_size, "seed": seed,
                        "final_loss": epoch_losses[-1], "epoch_losses": epoch_losses}
    return model


def reference_pairwise_sum(parts):
    """Sum of equal-shape arrays, added in the order in which numpy's pairwise
    summation adds the elements of one n-element row: one by one below 8,
    eight running sums combined as a tree up to 128, halves above that."""
    n = len(parts)
    if n < 8:
        total = parts[0].copy()
        for p in parts[1:]:
            total += p
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return reference_pairwise_sum(parts[:half]) + reference_pairwise_sum(parts[half:])
    acc = [p.copy() for p in parts[:8]]
    for i in range(8, n - n % 8, 8):
        for j in range(8):
            acc[j] += parts[i + j]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for p in parts[n - n % 8:]:
        total += p
    return total


def reference_logsumexp(a, axis=-1):
    """log(sum(exp(a))) along one axis, as a loop over the strided slices of
    that axis: the log-sum-exp that gmm's plane kernel must match byte for
    byte."""
    parts = list(np.moveaxis(a, axis, 0))
    amax = parts[0].copy()
    for p in parts[1:]:
        np.maximum(amax, p, out=amax)
    count = np.zeros_like(amax)
    shifted = []
    with np.errstate(invalid="ignore"):
        for p in parts:
            tie = p == amax
            count += tie
            e = np.subtract(p, amax)
            np.exp(e, out=e)
            e *= ~tie
            shifted.append(e)
        s = reference_pairwise_sum(shifted)
        s /= count
        out = np.log1p(s)
        out += np.log(count)
        out += amax
    finite = np.isfinite(amax)
    if not finite.all():
        out = np.where(finite, out, amax)
    return out


def reference_score(store, data):
    """gmm.frame_scores without the memo, reduced over strided (T, K) slices
    of the (T, M*K) matrix: the oracle for the component-major kernel."""
    x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if x.shape[0] == 0:
        raise EmptyUtteranceError("cannot score an utterance with no frames")
    if x.shape[1] != store.dim:
        raise DimensionError(f"feature dim {x.shape[1]} != store dim {store.dim}")
    logp = (x ** 2) @ store._inv.T  # (T, M*K)
    cross = x @ store._mean_inv.T
    cross *= 2.0
    logp -= cross
    del cross
    logp += store._mean2_inv
    logp *= 0.5
    np.subtract(store._const, logp, out=logp)
    logp += store._log_w
    per_frame = reference_logsumexp(logp.reshape(len(x), -1, len(store)), axis=1)  # (T, K)
    return np.ascontiguousarray(per_frame.T)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """3 speakers x 6 emotions x (2+2) sentences x 1 repetition: fast enough
    for per-module pipeline tests while exercising the full factorial layout."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    spec = SynthSpec(num_speakers=3, sentences_per_split=2, repetitions=1,
                     duration_s=(0.8, 1.2), seed=3)
    manifest = generate_synthetic(spec, str(out))
    return spec, manifest
