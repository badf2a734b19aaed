"""End-to-end train/evaluate orchestration shared by the CLI and tests."""

from __future__ import annotations

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
    frame_len = int(round(cfg.frame_ms * cfg.target_rate_hz / 1000.0))
    fft_size = feat_mod.default_fft_size(frame_len) if cfg.fft_size is None else cfg.fft_size
    if fft_size < frame_len:
        raise ConfigError(f"fft_size {fft_size} smaller than frame length {frame_len}")
    return feat_mod.build_filterbank(cfg.num_filters, cfg.target_rate_hz, fft_size,
                                     cfg.low_hz, cfg.high_hz)


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


def train_features(manifest: Manifest, cfg: PipelineConfig) -> list:
    """(entry, features) for every train-split entry, in manifest order."""
    train_entries = manifest.split_entries("train")
    if not train_entries:
        raise ValidationError("manifest has no train entries")
    bank = build_bank(cfg)
    return [(e, load_entry_features(e, cfg, bank)) for e in train_entries]


def train_tags(manifest: Manifest, cfg: PipelineConfig, train=None) -> TagStore:
    """One GMM tag per (speaker, emotion), trained by EM on the train split.

    train is ``train_features(manifest, cfg)``, extracted here when omitted.
    """
    if train is None:
        train = train_features(manifest, cfg)
    tags = []
    for si, spk in enumerate(manifest.speaker_roster):
        for ei, emo in enumerate(manifest.emotion_roster):
            rows = [fm.data for e, fm in train if e.speaker_id == spk and e.emotion == emo]
            if not rows:
                raise ValidationError(
                    f"no training data for speaker {spk} emotion {emo}")
            data = np.concatenate(rows, axis=0)
            seed = int(np.random.SeedSequence(
                (cfg.seed, 5, si, ei)).generate_state(1)[0])
            tags.append(gmm_mod.em_fit(
                data, cfg.mixtures, max_iters=cfg.gmm_max_iters, tol=cfg.gmm_tol,
                variance_floor=cfg.variance_floor, seed=seed))
    return TagStore(speaker_roster=list(manifest.speaker_roster),
                    emotion_roster=list(manifest.emotion_roster),
                    weights=np.stack([t.weights for t in tags]),
                    means=np.stack([t.means for t in tags]),
                    variances=np.stack([t.variances for t in tags]),
                    train_meta=[t.train_meta for t in tags],
                    front_end=cfg.front_end())


def train_models(manifest: Manifest, cfg: PipelineConfig) -> TrainedModels:
    """Train the tag store, the cascade DNN, and the DNN-alone ablation."""
    train = train_features(manifest, cfg)
    store = train_tags(manifest, cfg, train)

    # segment-level training sets for both networks
    plan = cfg.segment_plan()
    speaker_index = {spk: k for k, spk in enumerate(manifest.speaker_roster)}
    lvs, pooled, labels = [], [], []
    for e, fm in train:
        spans = cascade_mod.segment(fm, plan)
        lvs.append(cascade_mod.likelihood_vectors(store, fm, spans))
        pooled.append(cascade_mod.pooled_stats(store, fm, spans))
        labels += [speaker_index[e.speaker_id]] * len(spans)
    lvs = np.concatenate(lvs)
    pooled = np.concatenate(pooled)
    labels = np.asarray(labels)

    nets = []
    for rows in (lvs, pooled):
        std = _standardization(rows) if cfg.standardize_inputs else None
        nets.append(dnn_mod.train(
            rows, labels, cfg.hidden_sizes, len(manifest.speaker_roster),
            learning_rate=cfg.learning_rate, epochs=cfg.epochs, batch_size=cfg.batch_size,
            lr_decay=cfg.lr_decay, seed=cfg.seed, input_standardization=std))
    cascade_net, dnn_only = nets

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
    records = []
    for e in test_entries:
        fm = load_entry_features(e, cfg, bank, distort=distort)
        predicted = {}
        if "gmm" in modes:
            predicted["gmm"], _ = gmm_mod.gmm_identify(models.tag_store, fm)
        for mode, model, inputs in networks:
            if mode in modes:
                predicted[mode] = cascade_mod.classify(
                    models.tag_store, model, fm, plan, cfg.aggregation, inputs).speaker_id
        records += [TrialRecord(e.path, e.speaker_id, speaker, e.emotion, condition, mode,
                                e.repetition)
                    for mode, speaker in predicted.items()]
    return records


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
