"""Identification-rate tables, confusion matrices and the t significance test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TrialRecord:
    utterance_id: str
    true_speaker: str
    predicted_speaker: str
    emotion: str
    condition: str = "normal"  # normal | distorted
    classifier_mode: str = "cascade"  # gmm | dnn | cascade
    repetition: int = 0  # the manifest's; t-test samples are rates per repetition


@dataclass
class PerformanceTable:
    """Identification rate (%) per (emotion, mode, condition) cell."""

    # (emotion, mode, condition) -> {"rate": %, "correct": int, "trials": int}
    cells: dict
    # (mode, condition) -> trial-weighted average rate
    averages: dict


def sid_performance(records) -> PerformanceTable:
    """Correct / total * 100 per cell; empty cells are simply absent."""
    records = list(records)
    if not records:
        raise ValidationError("no trial records")
    counts = {}
    for rec in records:
        key = (rec.emotion, rec.classifier_mode, rec.condition)
        correct, total = counts.get(key, (0, 0))
        counts[key] = (correct + (rec.predicted_speaker == rec.true_speaker), total + 1)

    cells = {key: {"rate": 100.0 * c / t, "correct": c, "trials": t}
             for key, (c, t) in counts.items()}
    averages = {}
    tallies = {}
    for (_, mode, condition), (c, t) in counts.items():
        prev_c, prev_t = tallies.get((mode, condition), (0, 0))
        tallies[(mode, condition)] = (prev_c + c, prev_t + t)
    for key, (c, t) in tallies.items():
        averages[key] = 100.0 * c / t
    return PerformanceTable(cells=cells, averages=averages)


@dataclass(frozen=True)
class TTestResult:
    t_value: float
    n: int
    mean1: float
    mean2: float
    sd1: float
    sd2: float
    sd_pooled: float
    significant_at_0_05: bool
    infinite: bool = False

    CRITICAL_VALUE = 1.645  # one-sided, 0.05 level


def students_t(sample1, sample2) -> TTestResult:
    """Two-sample t with equal sizes and pooled SD sqrt((SD1^2+SD2^2)/2),
    each SD a sample SD (n-1 denominator)."""
    a = np.asarray(sample1, dtype=np.float64)
    b = np.asarray(sample2, dtype=np.float64)
    if len(a) != len(b):
        raise ValidationError(f"sample sizes differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("need at least 2 observations per sample")

    sd1 = float(np.std(a, ddof=1))
    sd2 = float(np.std(b, ddof=1))
    sd_pooled = float(np.sqrt((sd1 ** 2 + sd2 ** 2) / 2.0))
    m1, m2 = float(np.mean(a)), float(np.mean(b))

    infinite = False
    if sd_pooled == 0.0:
        t = 0.0 if m1 == m2 else float(np.copysign(np.inf, m1 - m2))
        infinite = m1 != m2
    else:
        t = (m1 - m2) / sd_pooled

    return TTestResult(t_value=t, n=len(a), mean1=m1, mean2=m2, sd1=sd1, sd2=sd2,
                       sd_pooled=sd_pooled,
                       significant_at_0_05=t > TTestResult.CRITICAL_VALUE,
                       infinite=infinite)


def confusion_matrix(records) -> dict:
    """Per-emotion S x S count matrices over the sorted speakers that occur
    in the records; entry (i, j) = true i predicted j."""
    records = list(records)
    if not records:
        raise ValidationError("no trial records")
    speakers = sorted({r.true_speaker for r in records}
                      | {r.predicted_speaker for r in records})
    index = {spk: k for k, spk in enumerate(speakers)}
    matrices = {}
    for rec in records:
        mat = matrices.setdefault(
            rec.emotion, np.zeros((len(speakers), len(speakers)), dtype=np.int64))
        mat[index[rec.true_speaker], index[rec.predicted_speaker]] += 1
    return {"speakers": speakers, "matrices": matrices}


def compare_two(table_a: PerformanceTable, table_b: PerformanceTable,
                name_a: str = "a", name_b: str = "b") -> dict:
    """Deltas between two performance tables sharing an emotion roster."""
    emotions_a = {emo for (emo, _, _) in table_a.cells}
    emotions_b = {emo for (emo, _, _) in table_b.cells}
    if emotions_a != emotions_b:
        raise ValidationError("emotion rosters differ between modes")

    def _rate(table, emotion):
        matches = [v["rate"] for (emo, _, _), v in table.cells.items() if emo == emotion]
        return float(np.mean(matches))

    per_emotion = {}
    for emo in sorted(emotions_a):
        ra, rb = _rate(table_a, emo), _rate(table_b, emo)
        per_emotion[emo] = _delta(ra, rb)

    avg_a = float(np.mean(list(table_a.averages.values())))
    avg_b = float(np.mean(list(table_b.averages.values())))
    return {"modes": [name_a, name_b], "per_emotion": per_emotion,
            "average": _delta(avg_a, avg_b)}


def _delta(rate_a: float, rate_b: float) -> dict:
    rel = None if rate_b == 0 else (rate_a - rate_b) / rate_b * 100.0
    return {"rate_a": rate_a, "rate_b": rate_b,
            "absolute_delta": rate_a - rate_b, "relative_improvement_pct": rel}
