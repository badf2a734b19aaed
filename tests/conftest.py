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


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """3 speakers x 6 emotions x (2+2) sentences x 1 repetition: fast enough
    for per-module pipeline tests while exercising the full factorial layout."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    spec = SynthSpec(num_speakers=3, sentences_per_split=2, repetitions=1,
                     duration_s=(0.8, 1.2), seed=3)
    manifest = generate_synthetic(spec, str(out))
    return spec, manifest
