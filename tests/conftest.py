"""Shared fixtures: tiny corpora and deterministic random data."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from emosid import pipeline, workers
from emosid.audio import AudioClip, save_wav
from emosid.containers import TAGS_MAGIC
from emosid.corpus import (EMOTION_PARAMS, EMOTIONS, Manifest, ManifestEntry, SynthSpec,
                           _speaker_voice, generate_synthetic, save_manifest)
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


def grid_store(rng, k, m, d, ties=True):
    """k random tags of m components in d dims, in a roster of k speakers and
    one emotion. With ties, component 1 of every tag repeats component 0 (the
    log-sum-exp ties) and the last component of tag 0 has zero weight."""
    weights = rng.uniform(0.1, 1.0, (k, m))
    means = rng.standard_normal((k, m, d)) * 2.0
    variances = rng.uniform(0.3, 2.0, (k, m, d))
    if ties and m > 1:
        weights[:, 1], means[:, 1], variances[:, 1] = weights[:, 0], means[:, 0], variances[:, 0]
        weights[0, -1] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):  # the log of a zero weight is -inf
        return TagStore(speaker_roster=[f"s{i}" for i in range(k)], emotion_roster=["neutral"],
                        weights=weights, means=means, variances=variances,
                        train_meta=[{}] * k, front_end={})


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


def reference_pulse_positions(rng, n, fs, f0, jitter):
    """The glottal pulse train as reference_synthesize_utterance draws it, one
    scalar normal and one Python step per pulse: the oracle for
    corpus._pulse_positions."""
    positions = []
    pos = 0.0
    while pos < n:
        positions.append(pos)
        period = fs / (f0 * (1.0 + jitter * rng.standard_normal()))
        pos += max(period, 2.0)
    return np.array(positions)


def reference_synthesize_utterance(spec, speaker_idx, emotion, sentence_id, repetition):
    """corpus.synthesize_utterance with every voice, script and resonator
    derived afresh and the per-pulse loop: the byte oracle for the renderer."""
    voice = _speaker_voice(spec, speaker_idx)
    inventory = np.random.default_rng((spec.seed, 2, 0)).uniform(0.82, 1.22, size=(8, 3))
    script_rng = np.random.default_rng((spec.seed, 2, 1 + sentence_id))
    script = []
    for _ in range(int(script_rng.integers(8, 13))):
        factors = inventory[int(script_rng.integers(8))]
        script.append((factors, script_rng.uniform(0.6, 1.4)))
    pitch_scale, energy_scale, jitter, formant_scale = EMOTION_PARAMS[emotion]
    emo_idx = EMOTIONS.index(emotion)
    rng = np.random.default_rng(
        (spec.seed, 3, speaker_idx, emo_idx, sentence_id, repetition))

    fs = spec.sample_rate_hz
    duration = rng.uniform(*spec.duration_s)
    total = int(round(duration * fs))
    weights = np.array([w for _, w in script])
    unit_lens = np.maximum((total * weights / weights.sum()).astype(int), fs // 50)

    f0 = voice.pitch_hz * pitch_scale
    out = []
    for (factors, _), n in zip(script, unit_lens):
        excitation = np.zeros(n)
        pos = 0.0
        while pos < n:
            excitation[int(pos)] = 1.0
            period = fs / (f0 * (1.0 + jitter * rng.standard_normal()))
            pos += max(period, 2.0)
        excitation += 0.02 * rng.standard_normal(n)

        y = excitation
        for k, (freq, bw) in enumerate(zip(voice.formants_hz, voice.bandwidths_hz)):
            freq_hz = min(freq * formant_scale * factors[k], 0.45 * fs)
            r = np.exp(-np.pi * bw / fs)
            theta = 2.0 * np.pi * freq_hz / fs
            a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
            y = lfilter(np.array([np.sum(a)]), a, y)
        out.append(y)

    samples = np.concatenate(out)
    env = np.ones(len(samples))
    edge = max(int(0.01 * fs), 1)
    env[:edge] = np.linspace(0.0, 1.0, edge)
    env[-edge:] = np.linspace(1.0, 0.0, edge)
    samples = samples * env

    tilt = rng.uniform(-0.25, 0.25)
    samples = lfilter([1.0, -tilt], [1.0], samples)
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples / peak * 0.5 * energy_scale * rng.uniform(0.8, 1.2)
    snr_db = rng.uniform(18.0, 30.0)
    sig_rms = np.sqrt(np.mean(samples ** 2))
    noise_rms = sig_rms / (10.0 ** (snr_db / 20.0))
    samples = samples + noise_rms * rng.standard_normal(len(samples))
    samples = np.clip(samples, -1.0, 1.0)
    source = f"synth:spk{speaker_idx:02d}:{emotion}:s{sentence_id}:r{repetition}"
    return AudioClip(samples=samples, sample_rate_hz=fs, source_id=source)


def reference_generate_synthetic(spec, out_dir):
    """corpus.generate_synthetic over reference_synthesize_utterance."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for spk_idx in range(spec.num_speakers):
        speaker_id = f"spk{spk_idx:02d}"
        for emotion in EMOTIONS[:spec.num_emotions]:
            for sentence_id in range(2 * spec.sentences_per_split):
                split = "train" if sentence_id < spec.sentences_per_split else "test"
                for rep in range(spec.repetitions):
                    name = f"{speaker_id}_{emotion}_s{sentence_id}_r{rep}.wav"
                    save_wav(out_dir / name, reference_synthesize_utterance(
                        spec, spk_idx, emotion, sentence_id, rep))
                    entries.append(ManifestEntry(
                        path=str(out_dir / name), speaker_id=speaker_id, emotion=emotion,
                        sentence_id=sentence_id, repetition=rep, split=split))
    manifest = Manifest(entries=entries)
    save_manifest(manifest, out_dir / "manifest.jsonl")
    return manifest


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """3 speakers x 6 emotions x (2+2) sentences x 1 repetition: fast enough
    for per-module pipeline tests while exercising the full factorial layout."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    spec = SynthSpec(num_speakers=3, sentences_per_split=2, repetitions=1,
                     duration_s=(0.8, 1.2), seed=3)
    manifest = generate_synthetic(spec, str(out))
    return spec, manifest


class PoolSpy(workers.ProcessPoolExecutor):
    """The workers' pool class, counting the pools started."""

    started = 0

    def __init__(self, *args, **kwargs):
        PoolSpy.started += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def pools(monkeypatch):
    """Every stage may fan out, whatever its size; counts the pools started."""
    PoolSpy.started = 0
    monkeypatch.setattr(workers, "ProcessPoolExecutor", PoolSpy)
    monkeypatch.setattr(workers, "MIN_POOL_UTTERANCES", 0)
    return PoolSpy


def run_python(code: str, *argv):
    """Run code in a fresh interpreter that imports this emosid; a hang fails
    after 120 s instead of stalling the suite."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
