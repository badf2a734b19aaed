"""Dataset manifests and the synthetic speech corpus generator.

The generator is a small source-filter synthesizer: a jittered glottal
pulse train excites a cascade of per-speaker resonators. Speaker identity
lives in the resonance frequencies and base pitch; emotion modulates
pitch, energy and jitter; "sentences" are shared vowel sequences so the
train/test split is genuinely text-independent. Everything is seeded and
byte-reproducible.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.signal import butter, lfilter

from .audio import AudioClip, save_wav
from .errors import ValidationError
from .workers import parallel_map

EMOTIONS = ("neutral", "happy", "sad", "disgust", "angry", "fear")

# (pitch scale, energy scale, jitter amount, formant scale)
# The formant scale shifts every speaker's resonances the same way, so an
# emotional voice can collide with a different speaker's neutral voice;
# identity is perturbed but not erased.
EMOTION_PARAMS = {
    "neutral": (1.00, 1.00, 0.010, 1.00),
    "happy": (1.25, 1.10, 0.030, 1.05),
    "sad": (0.85, 0.80, 0.020, 0.95),
    "disgust": (0.95, 0.90, 0.040, 0.97),
    "angry": (1.40, 1.30, 0.050, 1.10),
    "fear": (1.30, 1.00, 0.060, 1.07),
}

_REQUIRED_COLUMNS = ("path", "speaker_id", "emotion", "sentence_id", "repetition", "split")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    speaker_id: str
    emotion: str
    sentence_id: int
    repetition: int
    split: str  # train | test


@dataclass
class Manifest:
    entries: list
    speaker_roster: list = field(default_factory=list)
    emotion_roster: list = field(default_factory=list)

    def __post_init__(self):
        if not self.speaker_roster:
            self.speaker_roster = sorted({e.speaker_id for e in self.entries})
        if not self.emotion_roster:
            self.emotion_roster = sorted({e.emotion for e in self.entries})

    def split_entries(self, split: str):
        return [e for e in self.entries if e.split == split]


def validate_manifest(manifest: Manifest) -> None:
    """Enforce the text-independence and coverage invariants."""
    problems = []
    for k, e in enumerate(manifest.entries):
        if e.emotion not in EMOTIONS:
            problems.append(f"entry {k}: unknown emotion {e.emotion!r}")
        if e.split not in ("train", "test"):
            problems.append(f"entry {k}: unknown split {e.split!r}")

    by_split = {"train": set(), "test": set()}
    for e in manifest.entries:
        if e.split in by_split:
            by_split[e.split].add((e.speaker_id, e.sentence_id))
    overlap = by_split["train"] & by_split["test"]
    for spk, sent in sorted(overlap):
        problems.append(
            f"speaker {spk} sentence {sent} appears in both train and test splits")

    covered = {(e.speaker_id, e.emotion) for e in manifest.entries if e.split == "train"}
    for spk in manifest.speaker_roster:
        for emo in manifest.emotion_roster:
            if (spk, emo) not in covered:
                problems.append(f"no train entry for speaker {spk} emotion {emo}")

    if problems:
        raise ValidationError("manifest validation failed:\n  " + "\n  ".join(problems))


def _entry(where: str, row: dict) -> ManifestEntry:
    ids = {}
    for name in ("sentence_id", "repetition"):
        try:  # through str, so that 1.5 and true are refused, not truncated
            ids[name] = int(str(row[name]))
        except ValueError as exc:
            raise ValidationError(f"{where}: {name} {row[name]!r} is not an integer") from exc
    return ManifestEntry(path=str(row["path"]), speaker_id=str(row["speaker_id"]),
                         emotion=str(row["emotion"]), split=str(row["split"]), **ids)


def load_manifest(path) -> Manifest:
    """Read a JSON-lines or CSV manifest (UTF-8) and validate it."""
    path = Path(path)
    entries = []
    try:
        if path.suffix.lower() == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                missing = [c for c in _REQUIRED_COLUMNS if c not in (reader.fieldnames or [])]
                if missing:
                    raise ValidationError(f"manifest missing columns: {missing}")
                entries = [_entry(f"line {reader.line_num}", row) for row in reader]
        else:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValidationError(f"line {lineno}: bad JSON: {exc}") from exc
                    if not isinstance(row, dict):
                        row = {}  # a line that is not an object has none of the fields
                    missing = [c for c in _REQUIRED_COLUMNS if c not in row]
                    if missing:
                        raise ValidationError(f"line {lineno}: missing fields {missing}")
                    entries.append(_entry(f"line {lineno}", row))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc

    manifest = Manifest(entries=entries)
    validate_manifest(manifest)
    return manifest


def save_manifest(manifest: Manifest, path) -> None:
    with open(path, "w") as fh:
        for e in manifest.entries:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")


def protocol_counts(manifest: Manifest) -> dict:
    """Per-split totals plus the full-factorial cross-check."""
    summary = {"splits": {}, "factorial": {}}
    for split in ("train", "test"):
        entries = manifest.split_entries(split)
        sentences = sorted({e.sentence_id for e in entries})
        reps = sorted({e.repetition for e in entries})
        expected = (len(manifest.speaker_roster) * len(sentences) * len(reps)
                    * len(manifest.emotion_roster))
        present = {(e.speaker_id, e.emotion, e.sentence_id, e.repetition) for e in entries}
        missing = [list(cell) for cell in itertools.product(
            manifest.speaker_roster, manifest.emotion_roster, sentences, reps)
            if cell not in present]
        summary["splits"][split] = len(entries)
        summary["factorial"][split] = {
            "expected": expected,
            "is_factorial": len(entries) == expected and not missing,
            "missing": missing,
        }
    return summary


@dataclass(frozen=True)
class SynthSpec:
    num_speakers: int = 10
    num_emotions: int = 6
    sentences_per_split: int = 4
    repetitions: int = 3
    sample_rate_hz: int = 12000
    duration_s: tuple = (1.0, 1.6)
    seed: int = 0
    # 1.0 = well-separated speakers; smaller values pull every speaker's
    # resonances and pitch toward the population mean.
    separation: float = 1.0
    # per-utterance session nuisances: channel tilt coefficient bound and
    # recording noise SNR range (dB)
    channel_tilt: float = 0.25
    session_snr_db: tuple = (18.0, 30.0)


@dataclass(frozen=True)
class _SpeakerVoice:
    pitch_hz: float
    formants_hz: tuple
    bandwidths_hz: tuple


def _speaker_voice(spec: SynthSpec, idx: int) -> _SpeakerVoice:
    # stratified (latin-hypercube style) draws: per dimension each speaker
    # gets its own cell of the range, so no two voices collide
    n = spec.num_speakers
    cells = np.empty(4)
    for k in range(4):
        perm = np.random.default_rng((spec.seed, 1, 100 + k)).permutation(n)
        jitter = np.random.default_rng((spec.seed, 1, idx, k)).uniform(0.25, 0.75)
        cells[k] = (perm[idx] + jitter) / n
    rng = np.random.default_rng((spec.seed, 1, idx))
    u = rng.uniform(0.0, 1.0, size=3)
    pitch = 100.0 + 120.0 * cells[0]
    formants = np.array([350.0 + 450.0 * cells[1],
                         1000.0 + 1300.0 * cells[2],
                         2500.0 + 1300.0 * cells[3]])
    bands = np.array([80.0 + 60.0 * u[0], 90.0 + 70.0 * u[1], 120.0 + 80.0 * u[2]])
    centers = np.array([575.0, 1650.0, 3150.0])
    s = spec.separation
    formants = centers + s * (formants - centers)
    pitch = 160.0 + s * (pitch - 160.0)
    return _SpeakerVoice(pitch_hz=float(pitch), formants_hz=tuple(formants),
                         bandwidths_hz=tuple(bands))


_NUM_VOWELS = 8


def _sentence_script(spec: SynthSpec, sentence_id: int):
    """Shared 'text': (vowel indices into the common inventory, unit weights)."""
    rng = np.random.default_rng((spec.seed, 2, 1 + sentence_id))
    num_units = int(rng.integers(8, 13))
    units = [(int(rng.integers(_NUM_VOWELS)), rng.uniform(0.6, 1.4)) for _ in range(num_units)]
    return [v for v, _ in units], np.array([w for _, w in units])


def _pulse_positions(rng, n: int, fs: int, f0: float, jitter: float) -> np.ndarray:
    """Sample positions of a jittered glottal pulse train over n samples: pulse k+1
    follows pulse k (the first is at 0) by max(fs / (f0 (1 + jitter z_k)), 2), with
    one normal z_k per pulse. The normals are drawn as a chunk, grown until its
    pulses pass n; the generator is then rewound and advanced by one draw per pulse."""
    state, size = rng.bit_generator.state, int(n * f0 / fs) + 4
    while True:
        steps = np.maximum(fs / (f0 * (1.0 + jitter * rng.standard_normal(size))), 2.0)
        pos = np.concatenate(([0.0], np.cumsum(steps)))  # cumsum adds in loop order
        rng.bit_generator.state = state
        if pos[-1] >= n:
            break
        size *= 2
    pulses = pos[:np.searchsorted(pos, n)]
    rng.standard_normal(len(pulses))
    return pulses


def _renderer(spec: SynthSpec):
    """synthesize_utterance for one spec. Voices, sentence scripts and unit
    resonators are each derived once, and live only as long as the renderer."""
    fs = spec.sample_rate_hz
    voice = functools.cache(functools.partial(_speaker_voice, spec))
    script = functools.cache(functools.partial(_sentence_script, spec))
    # formant-scaling triples shared by every sentence (a tiny 'phoneme' set)
    inventory = np.random.default_rng((spec.seed, 2, 0)).uniform(0.82, 1.22, size=(_NUM_VOWELS, 3))

    @functools.cache
    def resonators(speaker_idx: int, emotion: str) -> np.ndarray:
        """(vowel, formant, [b0, a0, a1, a2]): b0 = a0 + a1 + a2 gives unit gain at DC."""
        v, table = voice(speaker_idx), np.empty((_NUM_VOWELS, 3, 4))
        for vowel, factors in enumerate(inventory):
            for k, (freq, bw, factor) in enumerate(zip(v.formants_hz, v.bandwidths_hz, factors)):
                hz = min(freq * EMOTION_PARAMS[emotion][3] * factor, 0.45 * fs)
                r = np.exp(-np.pi * bw / fs)
                theta = 2.0 * np.pi * hz / fs
                a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
                table[vowel, k] = np.sum(a), *a
        return table

    def render(speaker_idx: int, emotion: str, sentence_id: int, repetition: int) -> AudioClip:
        vowels, weights = script(sentence_id)
        pitch_scale, energy_scale, jitter, _ = EMOTION_PARAMS[emotion]
        rng = np.random.default_rng(
            (spec.seed, 3, speaker_idx, EMOTIONS.index(emotion), sentence_id, repetition))
        total = int(round(rng.uniform(*spec.duration_s) * fs))
        unit_lens = np.maximum((total * weights / weights.sum()).astype(int), fs // 50)

        f0 = voice(speaker_idx).pitch_hz * pitch_scale
        out = []
        for vowel, n in zip(vowels, unit_lens):
            y = np.zeros(n)
            y[_pulse_positions(rng, n, fs, f0, jitter).astype(int)] = 1.0  # glottal pulses
            y += 0.02 * rng.standard_normal(n)  # aspiration noise
            for coeffs in resonators(speaker_idx, emotion)[vowel]:
                y = lfilter(coeffs[:1], coeffs[1:], y)
            out.append(y)

        samples = np.concatenate(out)
        # smooth per-unit formant switching artifacts with a gentle fade envelope
        edge = max(int(0.01 * fs), 1)
        samples[:edge] *= np.linspace(0.0, 1.0, edge)
        samples[-edge:] *= np.linspace(1.0, 0.0, edge)

        # session nuisances: spectral tilt, level jitter and a noise floor, so
        # no two utterances share an identical channel
        tilt = rng.uniform(-spec.channel_tilt, spec.channel_tilt)
        samples = lfilter([1.0, -tilt], [1.0], samples)
        peak = np.max(np.abs(samples))
        if peak > 0:
            samples = samples / peak * 0.5 * energy_scale * rng.uniform(0.8, 1.2)
        snr_db = rng.uniform(*spec.session_snr_db)
        noise_rms = np.sqrt(np.mean(samples ** 2)) / (10.0 ** (snr_db / 20.0))
        samples = samples + noise_rms * rng.standard_normal(len(samples))
        samples = np.clip(samples, -1.0, 1.0)
        source = f"synth:spk{speaker_idx:02d}:{emotion}:s{sentence_id}:r{repetition}"
        return AudioClip(samples=samples, sample_rate_hz=fs, source_id=source)

    return render


def synthesize_utterance(spec: SynthSpec, speaker_idx: int, emotion: str,
                         sentence_id: int, repetition: int) -> AudioClip:
    """Render one utterance deterministically from its index tuple."""
    return _renderer(spec)(speaker_idx, emotion, sentence_id, repetition)


def generate_synthetic(spec: SynthSpec, out_dir) -> Manifest:
    """Write the full factorial corpus plus its manifest; returns the Manifest.

    One job per utterance renders it and writes its WAV, spread over the
    usable CPUs by ``workers.parallel_map``. Each utterance is seeded by its
    own index tuple, so the bytes do not depend on the CPU count. The manifest
    is written once every WAV is."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    render = _renderer(spec)
    cells = list(itertools.product(range(spec.num_speakers), EMOTIONS[:spec.num_emotions],
                                   range(2 * spec.sentences_per_split), range(spec.repetitions)))
    entries = [ManifestEntry(
        path=str(out_dir / f"spk{spk_idx:02d}_{emotion}_s{sentence_id}_r{rep}.wav"),
        speaker_id=f"spk{spk_idx:02d}", emotion=emotion, sentence_id=sentence_id,
        repetition=rep, split="train" if sentence_id < spec.sentences_per_split else "test")
        for spk_idx, emotion, sentence_id, rep in cells]

    def write(i):
        save_wav(entries[i].path, render(*cells[i]))

    parallel_map(write, len(cells), len(cells))
    manifest = Manifest(entries=entries)
    save_manifest(manifest, out_dir / "manifest.jsonl")
    return manifest


@functools.lru_cache(maxsize=8)
def _rumble_filter(sample_rate_hz: int):
    """The 4th-order 150 Hz Butterworth low-pass (b, a) at one rate, read-only."""
    b, a = butter(4, 150.0 / (sample_rate_hz / 2.0), btype="low")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def interference_clip(length: int, sample_rate_hz: int, seed) -> AudioClip:
    """Deterministic interference for the noise-stress experiment.

    Mostly low-frequency rumble plus a small wideband floor: it carries
    real power at the requested mixing ratio but only partially masks the
    speech band, in the spirit of the mild degradation the protocol probes.
    """
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(length + 256)
    b, a = _rumble_filter(sample_rate_hz)
    rumble = lfilter(b, a, white)[256:]
    noise = rumble / np.sqrt(np.mean(rumble ** 2)) \
        + 0.2 * rng.standard_normal(length)
    noise = noise / np.max(np.abs(noise))
    return AudioClip(samples=noise, sample_rate_hz=sample_rate_hz,
                     source_id="interference")
