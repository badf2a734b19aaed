"""WAV ingestion and waveform-level preprocessing.

Covers reading PCM WAV files, resampling to the working rate,
pre-emphasis, framing/windowing, and interference mixing for the
noise-stress experiment. All functions are pure; nothing here keeps
state between calls.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.signal import firwin, resample_poly

from .errors import (
    AudioFormatError,
    ConfigError,
    DegenerateNoiseError,
    EmptyAudioError,
    RateMismatchError,
    UnsupportedCodecError,
)

MIX_MODES = ("power", "amplitude")


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM samples normalized to [-1, 1] plus rate metadata."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FrameSet:
    """Windowed frames of one clip: (num_frames x frame_len)."""

    frames: np.ndarray
    frame_len: int
    hop_len: int

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class MixResult:
    """Output of mix_interference with the gains actually applied."""

    clip: AudioClip
    noise_gain: float
    # 1.0 unless the sum clipped and had to be peak-normalized.
    peak_scale: float = 1.0


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into a mono AudioClip.

    Accepts 16-bit PCM and 32-bit IEEE float, mono or multichannel
    (channels are averaged). Unknown chunks are skipped.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        # chunks are word-aligned
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise AudioFormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise AudioFormatError(f"{path}: missing data chunk")

    audio_format, channels, rate, _, _, bits = fmt
    if channels < 1 or rate < 1:
        raise AudioFormatError(f"{path}: bad fmt fields (channels={channels}, rate={rate})")

    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        samples = raw.astype(np.float64)
        if not np.isfinite(samples).all():  # np.clip below would keep NaN
            raise AudioFormatError(f"{path}: non-finite samples")
    else:
        raise UnsupportedCodecError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            "expected 16-bit PCM or 32-bit float"
        )

    if samples.size == 0:
        raise EmptyAudioError(f"{path}: empty data chunk")

    if channels > 1:
        usable = len(samples) - len(samples) % channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
        if samples.size == 0:
            raise EmptyAudioError(f"{path}: empty data chunk")

    samples = np.clip(samples, -1.0, 1.0)
    return AudioClip(samples=samples, sample_rate_hz=int(rate), source_id=str(path))


def save_wav(path, clip: AudioClip) -> None:
    """Write a mono 16-bit PCM WAV (used by the synthetic corpus generator)."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(body)))
        fh.write(b"WAVE")
        fh.write(b"fmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, 1, clip.sample_rate_hz,
                             clip.sample_rate_hz * 2, 2, 16))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(body)))
        fh.write(body)


@functools.lru_cache(maxsize=16)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """resample_poly's default low-pass for up/down, designed once and read-only
    (resample_poly copies a given window before scaling it by up)."""
    max_rate = max(up, down)
    h = firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def resample(clip: AudioClip, target_rate_hz: int) -> AudioClip:
    """Rate-convert with polyphase filtering (anti-aliased on downsampling)."""
    if target_rate_hz < 1000:
        raise ConfigError(f"target rate {target_rate_hz} below 1000 Hz")
    if target_rate_hz == clip.sample_rate_hz:
        return clip
    ratio = Fraction(target_rate_hz, clip.sample_rate_hz)
    up, down = ratio.numerator, ratio.denominator
    # the cached design is float64, as scipy's own is for float64 samples
    window = _resample_filter(up, down) if clip.samples.dtype == np.float64 else ("kaiser", 5.0)
    out = resample_poly(clip.samples, up, down, window=window)
    return AudioClip(samples=out, sample_rate_hz=target_rate_hz, source_id=clip.source_id)


def pre_emphasize(clip: AudioClip, alpha: float) -> AudioClip:
    """First-order high-pass: y[n] = x[n] - alpha*x[n-1], y[0] = x[0]."""
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"pre-emphasis alpha {alpha} outside [0, 1)")
    x = clip.samples
    if len(x) == 0:
        raise EmptyAudioError(f"{clip.source_id or 'clip'}: no samples to pre-emphasize")
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - alpha * x[:-1]
    return AudioClip(samples=y, sample_rate_hz=clip.sample_rate_hz, source_id=clip.source_id)


def hamming_window(length: int) -> np.ndarray:
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def frame_and_window(clip: AudioClip, frame_ms: float, hop_ms: float) -> FrameSet:
    """Slice into overlapping frames and apply a Hamming window.

    A clip shorter than one frame yields an empty FrameSet rather than an
    error; pipeline.extract_features refuses such clips.
    """
    if frame_ms <= 0 or hop_ms <= 0 or hop_ms > frame_ms:
        raise ConfigError(f"bad framing: frame_ms={frame_ms}, hop_ms={hop_ms}")
    frame_len = int(round(frame_ms * clip.sample_rate_hz / 1000.0))
    hop_len = int(round(hop_ms * clip.sample_rate_hz / 1000.0))
    hop_len = max(1, min(hop_len, frame_len))

    x = clip.samples
    if len(x) < frame_len:
        return FrameSet(frames=np.zeros((0, frame_len)), frame_len=frame_len, hop_len=hop_len)

    num_frames = (len(x) - frame_len) // hop_len + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop_len][:num_frames]
    frames = windows * hamming_window(frame_len)[None, :]
    return FrameSet(frames=frames, frame_len=frame_len, hop_len=hop_len)


def _tile_to_length(noise: np.ndarray, length: int) -> np.ndarray:
    if len(noise) >= length:
        return noise[:length]
    reps = -(-length // len(noise))
    return np.tile(noise, reps)[:length]


def mix_interference(clip: AudioClip, noise: AudioClip, power_ratio: float,
                     mode: str = "power") -> MixResult:
    """Add interference at a controlled signal/interference ratio.

    power_ratio is signal power over interference power ("power" mode; 2.0
    is about 3.01 dB SNR) or an amplitude (RMS) ratio in "amplitude" mode.
    Noise shorter than the clip tiles periodically. If the sum clips, the
    result is peak-normalized and the scale recorded.
    """
    if clip.sample_rate_hz != noise.sample_rate_hz:
        raise RateMismatchError(
            f"clip at {clip.sample_rate_hz} Hz vs noise at {noise.sample_rate_hz} Hz")
    if not 0 < power_ratio < np.inf:
        raise ConfigError(f"power_ratio must be positive and finite, got {power_ratio}")
    if mode not in MIX_MODES:
        raise ConfigError(f"unknown mix mode {mode!r}")
    if len(clip.samples) == 0 or len(noise.samples) == 0:
        raise EmptyAudioError("cannot mix an empty clip or empty interference")

    x = clip.samples
    n = _tile_to_length(noise.samples, len(x))
    p_sig = float(np.mean(x ** 2))
    p_noise = float(np.mean(n ** 2))
    if p_noise <= 0.0:
        raise DegenerateNoiseError("interference has zero power")

    if mode == "power":
        gain = np.sqrt(p_sig / (power_ratio * p_noise))
    else:
        gain = np.sqrt(p_sig / p_noise) / power_ratio

    mixed = x + gain * n
    peak = float(np.max(np.abs(mixed)))
    peak_scale = 1.0
    if peak > 1.0:
        peak_scale = 1.0 / peak
        mixed = mixed * peak_scale

    out = AudioClip(samples=mixed, sample_rate_hz=clip.sample_rate_hz,
                    source_id=clip.source_id)
    return MixResult(clip=out, noise_gain=float(gain), peak_scale=peak_scale)
