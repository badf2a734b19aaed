"""End-to-end train/evaluate orchestration shared by the CLI and tests."""

from __future__ import annotations

import functools
import json
import math
import typing
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np

from . import audio as audio_mod
from . import cascade as cascade_mod
from . import dnn as dnn_mod
from . import evaluation as eval_mod
from . import features as feat_mod
from . import gmm as gmm_mod
from .corpus import Manifest, interference_clip
from .errors import ConfigError, ValidationError
from .evaluation import TrialRecord
from .features import FeatureMatrix
from .gmm import TagStore
from .workers import parallel_map

MODES = ("gmm", "dnn", "cascade")
# the fields that extract_features, load_entry_features and build_bank read
FRONT_END = ("target_rate_hz", "pre_emphasis", "frame_ms", "hop_ms", "num_filters",
             "num_coeffs", "log_floor", "fft_size", "low_hz", "high_hz")


@dataclass
class PipelineConfig:
    """Effective settings for the whole pipeline, and the only source of their
    defaults and value checks: library functions take explicit values. Echoed
    into every report."""

    target_rate_hz: int = 12000
    pre_emphasis: float = 0.97
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    num_filters: int = 26
    num_coeffs: int = 13
    log_floor: float = 1e-10
    fft_size: int | None = None  # None = smallest power of two >= frame length
    low_hz: float = 300.0
    high_hz: float | None = None

    mixtures: int = 8
    variance_floor: float = 1e-4
    gmm_tol: float = 1e-4
    gmm_max_iters: int = 200

    segment_frames: int = 100
    segment_overlap: float = 0.5
    standardize_inputs: bool = True
    aggregation: str = "mean"

    hidden_sizes: tuple = (128, 128, 128, 128)
    learning_rate: float = 0.3
    epochs: int = 100
    batch_size: int = 32
    lr_decay: float = 0.98

    seed: int = 0
    snr_ratio: float = 2.0
    snr_mode: str = "power"

    def __post_init__(self):
        # a bad value or type fails here, not after reading audio or training
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} {value} not finite")
            want = FIELD_TYPES[name]
            if want is tuple:
                ok = isinstance(value, (list, tuple)) and all(_json_is(v, int) for v in value)
            else:
                ok = any(_json_is(value, t) for t in typing.get_args(want) or (want,))
            if not ok:
                raise ConfigError(f"config key {name!r}: {value!r} is not {want}")
        self.hidden_sizes = tuple(self.hidden_sizes)
        for ok, problem in [
                (self.target_rate_hz >= 1000, f"target rate {self.target_rate_hz} below 1000 Hz"),
                (0.0 <= self.pre_emphasis < 1.0,
                 f"pre-emphasis {self.pre_emphasis} outside [0, 1)"),
                (0 < self.hop_ms <= self.frame_ms,
                 f"bad framing: frame_ms={self.frame_ms}, hop_ms={self.hop_ms}"),
                (1 <= self.num_coeffs <= self.num_filters,
                 f"num_coeffs {self.num_coeffs} outside [1, num_filters={self.num_filters}]"),
                (self.log_floor > 0, f"log floor {self.log_floor} not positive"),
                (self.mixtures >= 1, f"mixtures {self.mixtures} below 1"),
                (self.variance_floor > 0, f"variance floor {self.variance_floor} not positive"),
                (self.gmm_max_iters >= 1, f"gmm_max_iters {self.gmm_max_iters} below 1"),
                (self.gmm_tol >= 0, f"gmm_tol {self.gmm_tol} negative"),
                (all(h >= 1 for h in self.hidden_sizes),
                 f"hidden sizes {list(self.hidden_sizes)}: each must be at least 1"),
                (self.learning_rate > 0, f"learning rate {self.learning_rate} not positive"),
                (self.epochs >= 1, f"epochs {self.epochs} below 1"),
                (self.batch_size >= 1, f"batch size {self.batch_size} below 1"),
                (0.0 < self.lr_decay <= 1.0, f"lr_decay {self.lr_decay} outside (0, 1]"),
                (self.seed >= 0, f"seed {self.seed} negative"),
                (self.aggregation in cascade_mod.AGGREGATIONS,
                 f"aggregation {self.aggregation!r} not one of {cascade_mod.AGGREGATIONS}"),
                (self.snr_ratio > 0, f"SNR ratio {self.snr_ratio} not positive"),
                (self.snr_mode in audio_mod.MIX_MODES,
                 f"SNR mode {self.snr_mode!r} not one of {audio_mod.MIX_MODES}")]:
            if not ok:
                raise ConfigError(problem)
        build_bank(self)
        self.segment_plan()

    def segment_plan(self) -> cascade_mod.SegmentPlan:
        return cascade_mod.SegmentPlan(self.segment_frames, self.segment_overlap)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d

    def front_end(self) -> dict:
        """The FRONT_END settings; a tag store records those it was trained under."""
        return {name: getattr(self, name) for name in FRONT_END}


FIELD_TYPES = typing.get_type_hints(PipelineConfig)  # field -> annotated type


def _json_is(value, typ) -> bool:
    """isinstance for a JSON value: 8 is a float, true is not a number."""
    if isinstance(value, bool):
        return typ is bool
    return isinstance(value, (int, float) if typ is float else typ)


def extract_features(clip: audio_mod.AudioClip, cfg: PipelineConfig,
                     bank: feat_mod.MelFilterbank | None = None) -> FeatureMatrix:
    """Waveform -> MFCC matrix under the configured front end. A clip shorter
    than one frame is a ValidationError."""
    clip = audio_mod.resample(clip, cfg.target_rate_hz)
    clip = audio_mod.pre_emphasize(clip, cfg.pre_emphasis)
    frames = audio_mod.frame_and_window(clip, cfg.frame_ms, cfg.hop_ms)
    if frames.num_frames == 0:
        raise ValidationError(f"{clip.source_id}: shorter than one frame")
    if bank is None:
        bank = build_bank(cfg)
    meta = {"source_id": clip.source_id, "frame_ms": cfg.frame_ms, "hop_ms": cfg.hop_ms,
            "sample_rate_hz": cfg.target_rate_hz}
    return feat_mod.mfcc(frames, bank, cfg.num_coeffs, cfg.log_floor, meta=meta)


def build_bank(cfg: PipelineConfig) -> feat_mod.MelFilterbank:
    """The Mel filterbank of cfg's front end; built once per FRONT_END values."""
    return _bank(**cfg.front_end())


@functools.lru_cache(maxsize=16, typed=True)
def _bank(*, target_rate_hz, frame_ms, num_filters, fft_size, low_hz, high_hz,
          **_unread) -> feat_mod.MelFilterbank:
    frame_len = int(round(frame_ms * target_rate_hz / 1000.0))
    fft_size = feat_mod.default_fft_size(frame_len) if fft_size is None else fft_size
    if fft_size < frame_len:
        raise ConfigError(f"fft_size {fft_size} smaller than frame length {frame_len}")
    bank = feat_mod.build_filterbank(num_filters, target_rate_hz, fft_size, low_hz, high_hz)
    for array in (bank.triangles, bank.boundaries_hz, bank.boundary_bins):
        array.flags.writeable = False
    return bank


def _distort(clip: audio_mod.AudioClip, cfg: PipelineConfig, entry) -> audio_mod.AudioClip:
    # seeded by what the utterance is, not where its file lies
    key = json.dumps([entry.speaker_id, entry.emotion, entry.sentence_id, entry.repetition])
    seed = (cfg.seed, 4, zlib.crc32(key.encode("utf-8")))
    noise = interference_clip(len(clip.samples), clip.sample_rate_hz, seed)
    return audio_mod.mix_interference(clip, noise, cfg.snr_ratio, cfg.snr_mode).clip


def load_entry_features(entry, cfg: PipelineConfig, bank=None,
                        distort: bool = False) -> FeatureMatrix:
    """Features of one manifest entry; with distort, interference is mixed in
    at the working rate before the front end."""
    clip = audio_mod.resample(audio_mod.load_wav(entry.path), cfg.target_rate_hz)
    if distort:
        clip = _distort(clip, cfg, entry)
    return extract_features(clip, cfg, bank)


@dataclass
class TrainedModels:
    tag_store: TagStore
    cascade_dnn: dnn_mod.DnnModel | None = None
    dnn_only: dnn_mod.DnnModel | None = None
    report: dict = field(default_factory=dict)


def _standardization(vectors: np.ndarray):
    mean = vectors.mean(axis=0)
    std = vectors.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _fit_tags(manifest: Manifest, cfg: PipelineConfig):
    """(tag store, [(entry, features)] of the train split in manifest order).

    One job per (speaker, emotion): extract its train utterances and fit its
    tag by EM."""
    train = manifest.split_entries("train")
    if not train:
        raise ValidationError("manifest has no train entries")
    groups = []
    for spk in manifest.speaker_roster:
        for emo in manifest.emotion_roster:
            groups.append([i for i, e in enumerate(train)
                           if e.speaker_id == spk and e.emotion == emo])
            if not groups[-1]:
                raise ValidationError(
                    f"no training data for speaker {spk} emotion {emo}")
    bank = build_bank(cfg)

    def fit(k):
        si, ei = divmod(k, len(manifest.emotion_roster))
        fms = [load_entry_features(train[i], cfg, bank) for i in groups[k]]
        seed = int(np.random.SeedSequence((cfg.seed, 5, si, ei)).generate_state(1)[0])
        tag = gmm_mod.em_fit(
            np.concatenate([fm.data for fm in fms], axis=0), cfg.mixtures,
            max_iters=cfg.gmm_max_iters, tol=cfg.gmm_tol,
            variance_floor=cfg.variance_floor, seed=seed)
        return fms, tag

    fitted = parallel_map(fit, len(groups), len(train))
    features = {i: fm for group, (fms, _) in zip(groups, fitted) for i, fm in zip(group, fms)}
    tags = [tag for _, tag in fitted]
    store = TagStore(speaker_roster=list(manifest.speaker_roster),
                     emotion_roster=list(manifest.emotion_roster),
                     weights=np.stack([t.weights for t in tags]),
                     means=np.stack([t.means for t in tags]),
                     variances=np.stack([t.variances for t in tags]),
                     train_meta=[t.train_meta for t in tags],
                     front_end=cfg.front_end())
    return store, [(e, features[i]) for i, e in enumerate(train)]


def train_tags(manifest: Manifest, cfg: PipelineConfig) -> TagStore:
    """One GMM tag per (speaker, emotion), trained by EM on the train split."""
    return _fit_tags(manifest, cfg)[0]


def train_models(manifest: Manifest, cfg: PipelineConfig) -> TrainedModels:
    """Train the tag store, the cascade DNN, and the DNN-alone ablation."""
    store, train = _fit_tags(manifest, cfg)

    # segment-level training sets for both networks, one job per network
    plan = cfg.segment_plan()
    spans = [cascade_mod.segment(fm, plan) for _, fm in train]
    speaker_index = {spk: k for k, spk in enumerate(manifest.speaker_roster)}
    labels = np.asarray([speaker_index[e.speaker_id]
                         for (e, _), s in zip(train, spans) for _ in s])
    inputs = (cascade_mod.likelihood_vectors, cascade_mod.pooled_stats)

    def fit(k):
        rows = np.concatenate([inputs[k](store, fm, s) for (_, fm), s in zip(train, spans)])
        std = _standardization(rows) if cfg.standardize_inputs else None
        return dnn_mod.train(
            rows, labels, cfg.hidden_sizes, len(manifest.speaker_roster),
            learning_rate=cfg.learning_rate, epochs=cfg.epochs, batch_size=cfg.batch_size,
            lr_decay=cfg.lr_decay, seed=cfg.seed, input_standardization=std)

    cascade_net, dnn_only = parallel_map(fit, len(inputs), len(train))

    report = {
        "config": cfg.to_dict(),
        "num_tags": len(store),
        "train_utterances": len(train),
        "train_segments": int(len(labels)),
        "cascade_final_loss": cascade_net.train_meta["final_loss"],
        "dnn_only_final_loss": dnn_only.train_meta["final_loss"],
    }
    return TrainedModels(tag_store=store, cascade_dnn=cascade_net,
                         dnn_only=dnn_only, report=report)


def evaluate_models(manifest: Manifest, models: TrainedModels, cfg: PipelineConfig,
                    modes=MODES, distort: bool = False):
    """Run the requested classifier modes over the test split.

    Returns a list of TrialRecords (condition is "distorted" when the
    interference mixer is active). cfg's front end must be the one the tag
    store was trained under.
    """
    if cfg.front_end() != models.tag_store.front_end:
        raise ConfigError(f"config front end {cfg.front_end()} differs from the tag "
                          f"store's {models.tag_store.front_end}")
    test_entries = manifest.split_entries("test")
    if not test_entries:
        raise ValidationError("manifest has no test entries")
    bad = [m for m in modes if m not in MODES]
    if bad:
        raise ValidationError(f"unknown modes: {bad}")

    bank = build_bank(cfg)
    plan = cfg.segment_plan()
    condition = "distorted" if distort else "normal"
    networks = [("cascade", models.cascade_dnn, cascade_mod.likelihood_vectors),
                ("dnn", models.dnn_only, cascade_mod.pooled_stats)]

    def decide(i):
        e = test_entries[i]
        fm = load_entry_features(e, cfg, bank, distort=distort)
        predicted = {}
        if "gmm" in modes:
            predicted["gmm"], _ = gmm_mod.gmm_identify(models.tag_store, fm)
        for mode, model, inputs in networks:
            if mode in modes:
                predicted[mode] = cascade_mod.classify(
                    models.tag_store, model, fm, plan, cfg.aggregation, inputs).speaker_id
        return [TrialRecord(e.path, e.speaker_id, speaker, e.emotion, condition, mode,
                            e.repetition)
                for mode, speaker in predicted.items()]

    return [r for recs in parallel_map(decide, len(test_entries), len(test_entries))
            for r in recs]


def evaluation_report(records, cfg: PipelineConfig) -> dict:
    """Performance tables, confusion matrices, t-tests and mode comparisons."""
    by_mode = {}
    for rec in records:
        by_mode.setdefault(rec.classifier_mode, []).append(rec)

    tables = {mode: eval_mod.sid_performance(recs) for mode, recs in by_mode.items()}
    report = {"config": cfg.to_dict(), "modes": {}, "t_tests": [], "comparisons": []}

    for mode, table in tables.items():
        cm = eval_mod.confusion_matrix(by_mode[mode])
        report["modes"][mode] = {
            "cells": {f"{emo}|{m}|{cond}": v
                      for (emo, m, cond), v in sorted(table.cells.items())},
            "averages": {f"{m}|{cond}": v
                         for (m, cond), v in sorted(table.averages.items())},
            "confusion": {emo: mat.tolist() for emo, mat in cm["matrices"].items()},
            "confusion_speakers": cm["speakers"],
        }

    # significance over per-repetition rates (one rate per test repetition)
    def _rep_rates(recs):
        hits = {}
        for r in recs:
            hits.setdefault(r.repetition, []).append(r.predicted_speaker == r.true_speaker)
        return [100.0 * sum(h) / len(h) for _, h in sorted(hits.items())]

    modes = sorted(by_mode)
    for i, a in enumerate(modes):
        for b in modes[i + 1:]:
            ra, rb = _rep_rates(by_mode[a]), _rep_rates(by_mode[b])
            if len(ra) == len(rb) and len(ra) >= 2:
                t = eval_mod.students_t(ra, rb)
                report["t_tests"].append({
                    "modes": [a, b], "samples": [ra, rb], "t_value": t.t_value,
                    "sd_pooled": t.sd_pooled,
                    "significant_at_0.05": t.significant_at_0_05,
                })
            cmp = eval_mod.compare_two(tables[a], tables[b], a, b)
            report["comparisons"].append(cmp)
    return report
