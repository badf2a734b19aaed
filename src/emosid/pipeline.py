"""End-to-end train/evaluate orchestration shared by the CLI and tests."""

from __future__ import annotations

import json
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
from .errors import EmosidError, ValidationError
from .evaluation import TrialRecord
from .features import FeatureMatrix
from .gmm import TagStore

MODES = ("gmm", "dnn", "cascade")


@dataclass
class PipelineConfig:
    """Effective settings for the whole pipeline; echoed into every report."""

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

    def segment_plan(self) -> cascade_mod.SegmentPlan:
        return cascade_mod.SegmentPlan(self.segment_frames, self.segment_overlap)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d


def extract_features(clip: audio_mod.AudioClip, cfg: PipelineConfig,
                     bank: feat_mod.MelFilterbank | None = None) -> FeatureMatrix:
    """Waveform -> MFCC matrix under the configured front end."""
    clip = audio_mod.resample(clip, cfg.target_rate_hz)
    clip = audio_mod.pre_emphasize(clip, cfg.pre_emphasis)
    frames = audio_mod.frame_and_window(clip, cfg.frame_ms, cfg.hop_ms)
    if bank is None:
        bank = build_bank(cfg)
    meta = {"source_id": clip.source_id, "frame_ms": cfg.frame_ms, "hop_ms": cfg.hop_ms,
            "sample_rate_hz": cfg.target_rate_hz}
    return feat_mod.mfcc(frames, bank, cfg.num_coeffs, cfg.log_floor, meta=meta)


def build_bank(cfg: PipelineConfig) -> feat_mod.MelFilterbank:
    frame_len = int(round(cfg.frame_ms * cfg.target_rate_hz / 1000.0))
    fft_size = cfg.fft_size or feat_mod.default_fft_size(frame_len)
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
    clip = audio_mod.load_wav(entry.path)
    clip = audio_mod.resample(clip, cfg.target_rate_hz)
    if distort:
        clip = _distort(clip, cfg, entry)
    clip = audio_mod.pre_emphasize(clip, cfg.pre_emphasis)
    frames = audio_mod.frame_and_window(clip, cfg.frame_ms, cfg.hop_ms)
    if bank is None:
        bank = build_bank(cfg)
    meta = {"source_id": entry.path, "frame_ms": cfg.frame_ms, "hop_ms": cfg.hop_ms,
            "sample_rate_hz": cfg.target_rate_hz}
    return feat_mod.mfcc(frames, bank, cfg.num_coeffs, cfg.log_floor, meta=meta)


@dataclass
class TrainedModels:
    tag_store: TagStore
    cascade_dnn: dnn_mod.DnnModel
    dnn_only: dnn_mod.DnnModel
    report: dict = field(default_factory=dict)


def _standardization(vectors: np.ndarray):
    mean = vectors.mean(axis=0)
    std = vectors.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def train_models(manifest: Manifest, cfg: PipelineConfig) -> TrainedModels:
    """Train the tag store, the cascade DNN, and the DNN-alone ablation."""
    train_entries = manifest.split_entries("train")
    if not train_entries:
        raise ValidationError("manifest has no train entries")

    bank = build_bank(cfg)
    feats = {e.path: load_entry_features(e, cfg, bank) for e in train_entries}
    for e in train_entries:
        if feats[e.path].num_frames == 0:
            raise ValidationError(f"{e.path}: shorter than one frame")

    # one GMM tag per (speaker, emotion)
    tags = {}
    for si, spk in enumerate(manifest.speaker_roster):
        for ei, emo in enumerate(manifest.emotion_roster):
            rows = [feats[e.path].data for e in train_entries
                    if e.speaker_id == spk and e.emotion == emo]
            if not rows:
                raise ValidationError(
                    f"no training data for speaker {spk} emotion {emo}")
            data = np.concatenate(rows, axis=0)
            seed = int(np.random.SeedSequence(
                (cfg.seed, 5, si, ei)).generate_state(1)[0])
            tags[(spk, emo)] = gmm_mod.em_fit(
                data, cfg.mixtures, max_iters=cfg.gmm_max_iters, tol=cfg.gmm_tol,
                variance_floor=cfg.variance_floor, seed=seed, label=(spk, emo))
    store = TagStore(tags=tags, speaker_roster=list(manifest.speaker_roster),
                     emotion_roster=list(manifest.emotion_roster))

    # segment-level training sets for both networks
    plan = cfg.segment_plan()
    speaker_index = {spk: k for k, spk in enumerate(manifest.speaker_roster)}

    lvs, pooled, labels = [], [], []
    for e in train_entries:
        fm = feats[e.path]
        spans = cascade_mod.segment(fm, plan)
        lvs.append(cascade_mod.likelihood_vectors(store, fm, spans))
        for a, b in spans:
            pooled.append(cascade_mod.pooled_mfcc_stats(FeatureMatrix(fm.data[a:b], fm.meta)))
            labels.append(speaker_index[e.speaker_id])
    lvs = np.concatenate(lvs)
    pooled = np.stack(pooled)
    labels = np.asarray(labels)

    num_speakers = len(manifest.speaker_roster)
    tc = dnn_mod.TrainConfig(learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                             batch_size=cfg.batch_size, seed=cfg.seed,
                             lr_decay=cfg.lr_decay)
    std_lv = _standardization(lvs) if cfg.standardize_inputs else None
    cascade_net = dnn_mod.train(lvs, labels, tc, cfg.hidden_sizes, num_speakers,
                                input_standardization=std_lv)
    std_pooled = _standardization(pooled) if cfg.standardize_inputs else None
    dnn_only = dnn_mod.train(pooled, labels, tc, cfg.hidden_sizes, num_speakers,
                             input_standardization=std_pooled)

    report = {
        "config": cfg.to_dict(),
        "num_tags": len(store),
        "train_utterances": len(train_entries),
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
    interference mixer is active).
    """
    test_entries = manifest.split_entries("test")
    if not test_entries:
        raise ValidationError("manifest has no test entries")
    bad = [m for m in modes if m not in MODES]
    if bad:
        raise ValidationError(f"unknown modes: {bad}")

    bank = build_bank(cfg)
    plan = cfg.segment_plan()
    condition = "distorted" if distort else "normal"
    records = []
    for e in test_entries:
        fm = load_entry_features(e, cfg, bank, distort=distort)
        if fm.num_frames == 0:
            raise ValidationError(f"{e.path}: shorter than one frame")
        utt = f"{e.path}"
        if "gmm" in modes:
            predicted, _ = gmm_mod.gmm_identify(models.tag_store, fm)
            records.append(TrialRecord(utt, e.speaker_id, predicted, e.emotion,
                                       condition, "gmm"))
        if "cascade" in modes:
            decision = cascade_mod.classify(models.tag_store, models.cascade_dnn,
                                            fm, plan, cfg.aggregation)
            records.append(TrialRecord(utt, e.speaker_id, decision.speaker_id,
                                       e.emotion, condition, "cascade"))
        if "dnn" in modes:
            decision = cascade_mod.classify_dnn_only(
                models.dnn_only, fm, plan, models.tag_store.speaker_roster,
                cfg.aggregation)
            records.append(TrialRecord(utt, e.speaker_id, decision.speaker_id,
                                       e.emotion, condition, "dnn"))
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
        reps = sorted({_repetition_of(r.utterance_id) for r in recs})
        rates = []
        for rep in reps:
            sub = [r for r in recs if _repetition_of(r.utterance_id) == rep]
            rates.append(100.0 * sum(r.predicted_speaker == r.true_speaker
                                     for r in sub) / len(sub))
        return rates

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


def _repetition_of(utterance_id: str) -> str:
    # synthetic corpus paths end in _r<rep>.wav; fall back to the whole id
    stem = utterance_id.rsplit(".", 1)[0]
    if "_r" in stem:
        return stem.rsplit("_r", 1)[-1]
    return stem
