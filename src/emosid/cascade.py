"""The GMM -> DNN cascade.

Utterances are cut into overlapping segments of T frames; each segment is
scored against every (speaker, emotion) tag to form a likelihood vector,
which the DNN maps to a speaker posterior. Each frame is scored against a
tag once, and a segment's vector is the mean of its frames' scores, so
overlapping segments share work. Segment posteriors are averaged into the
utterance decision. The DNN-alone ablation runs the same ``classify`` with
pooled MFCC statistics (mean and std per coefficient over the segment) in
place of the likelihood vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dnn as dnn_mod
from . import gmm as gmm_mod
from .errors import ConfigError, DimensionError
from .features import FeatureMatrix
from .gmm import TagStore

AGGREGATIONS = ("mean",)


@dataclass(frozen=True)
class SegmentPlan:
    frames_per_segment: int
    overlap_fraction: float

    def __post_init__(self):
        if self.frames_per_segment < 1:
            raise ConfigError("frames_per_segment must be >= 1")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ConfigError("overlap_fraction must be in [0, 1)")

    @property
    def hop(self) -> int:
        return max(1, round(self.frames_per_segment * (1.0 - self.overlap_fraction)))


def segment(features: FeatureMatrix, plan: SegmentPlan):
    """Split an utterance into frame spans [(start, stop), ...].

    Full segments of T frames at stride hop; a trailing remainder of at
    least T/2 frames that extends past the last full segment is kept;
    anything shorter is dropped. Utterances below T frames come back as a
    single short segment.
    """
    n = features.num_frames
    if n == 0:
        raise DimensionError("cannot segment an empty utterance")
    t = plan.frames_per_segment
    if n < t:
        return [(0, n)]
    spans = []
    start = 0
    while start + t <= n:
        spans.append((start, start + t))
        start += plan.hop
    last_end = spans[-1][1]
    if last_end < n and n - start >= t / 2:
        spans.append((start, n))
    return spans


def _check_spans(spans, num_frames: int) -> None:
    for a, b in spans:
        if not 0 <= a < b <= num_frames:
            raise DimensionError(f"span ({a}, {b}) is empty or past {num_frames} frames")


def likelihood_vectors(store: TagStore, features, spans) -> np.ndarray:
    """Mean log-likelihood of each frame span against every tag: (S, K).

    Row s is span s, columns are tags in roster order; each entry equals
    ``gmm.score_utterance(tag, features[a:b])`` to 1e-14 relative.
    """
    scores = gmm_mod.frame_scores(store, features)
    _check_spans(spans, scores.shape[1])
    return np.stack([scores[:, a:b].mean(axis=1) for a, b in spans])


def pooled_stats(store: TagStore, features, spans) -> np.ndarray:
    """Mean and standard deviation per coefficient of each frame span:
    (S, 2D), the DNN-alone input. The store is not used; the signature is
    that of ``likelihood_vectors`` so that ``classify`` takes either."""
    data = features.data if isinstance(features, FeatureMatrix) else np.asarray(features)
    _check_spans(spans, data.shape[0])
    return np.stack([np.concatenate([data[a:b].mean(axis=0), data[a:b].std(axis=0)])
                     for a, b in spans])


@dataclass(frozen=True)
class Decision:
    speaker_id: str
    posterior: np.ndarray  # over the speaker roster
    per_segment: list  # per-segment posteriors (and spans)
    tie: bool = False


def classify(store: TagStore, model: dnn_mod.DnnModel, features: FeatureMatrix,
             plan: SegmentPlan, aggregation: str, inputs=likelihood_vectors) -> Decision:
    """Segments -> DNN -> averaged posterior over the store's speaker roster.

    inputs(store, features, spans) gives the DNN's row for each segment:
    ``likelihood_vectors`` for the cascade, ``pooled_stats`` for the
    DNN-alone ablation. aggregation must be "mean", the one mode.
    """
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"unknown aggregation mode {aggregation!r}")
    if model.output_size != len(store.speaker_roster):
        raise ConfigError(
            f"DNN output size {model.output_size} != speaker count "
            f"{len(store.speaker_roster)}")
    spans = segment(features, plan)
    rows = inputs(store, features, spans)
    if model.input_size != rows.shape[1]:
        raise ConfigError(
            f"DNN input size {model.input_size} != segment input width {rows.shape[1]}")
    posteriors, _ = dnn_mod.forward(model, rows)
    utt_posterior = posteriors.mean(axis=0)
    best = int(np.argmax(utt_posterior))
    tie = int(np.sum(utt_posterior == utt_posterior[best])) > 1
    per_segment = [{"span": list(span), "posterior": p.tolist()}
                   for span, p in zip(spans, posteriors)]
    return Decision(speaker_id=store.speaker_roster[best], posterior=utt_posterior,
                    per_segment=per_segment, tie=tie)
