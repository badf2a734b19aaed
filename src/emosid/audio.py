"""WAV ingestion and waveform-level preprocessing.

Covers reading PCM WAV files, resampling to the working rate,
pre-emphasis, framing/windowing (which refuses a clip shorter than one
frame), and interference mixing for the noise-stress experiment. All
functions are pure; nothing here keeps state between calls.
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
    DimensionError,
    EmptyAudioError,
    RateMismatchError,
    UnsupportedCodecError,
    ValidationError,
)


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM samples normalized to [-1, 1] plus rate metadata."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""


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
    np.multiply(x[:-1], alpha, out=y[1:])
    np.subtract(x[1:], y[1:], out=y[1:])
    return AudioClip(samples=y, sample_rate_hz=clip.sample_rate_hz, source_id=clip.source_id)


@functools.lru_cache(maxsize=16)
def hamming_window(length: int) -> np.ndarray:
    """The Hamming window of a length, computed once and read-only."""
    if length == 1:
        window = np.ones(1)
    else:
        window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(length) / (length - 1))
    window.flags.writeable = False
    return window


def frame_and_window(clip: AudioClip, frame_ms: float, hop_ms: float) -> np.ndarray:
    """Slice into overlapping frames and apply a Hamming window: the
    (num_frames, frame_len) array. A clip shorter than one frame is a
    ValidationError."""
    if frame_ms <= 0 or hop_ms <= 0 or hop_ms > frame_ms:
        raise ConfigError(f"bad framing: frame_ms={frame_ms}, hop_ms={hop_ms}")
    frame_len = int(round(frame_ms * clip.sample_rate_hz / 1000.0))
    hop_len = int(round(hop_ms * clip.sample_rate_hz / 1000.0))
    hop_len = max(1, min(hop_len, frame_len))

    x = clip.samples
    if len(x) < frame_len:
        raise ValidationError(f"{clip.source_id}: shorter than one frame")

    num_frames = (len(x) - frame_len) // hop_len + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop_len][:num_frames]
    return windows * hamming_window(frame_len)[None, :]


def mix_interference(clip: AudioClip, noise: AudioClip, power_ratio: float) -> MixResult:
    """Add interference of the clip's own length at a controlled
    signal/interference ratio.

    power_ratio is signal power over interference power (2.0 is about
    3.01 dB SNR). If the sum clips, the result is peak-normalized and the
    scale recorded.
    """
    if clip.sample_rate_hz != noise.sample_rate_hz:
        raise RateMismatchError(
            f"clip at {clip.sample_rate_hz} Hz vs noise at {noise.sample_rate_hz} Hz")
    if not 0 < power_ratio < np.inf:
        raise ConfigError(f"power_ratio must be positive and finite, got {power_ratio}")
    if len(clip.samples) == 0 or len(noise.samples) == 0:
        raise EmptyAudioError("cannot mix an empty clip or empty interference")
    if len(noise.samples) != len(clip.samples):
        raise DimensionError(
            f"interference of {len(noise.samples)} samples for a clip of {len(clip.samples)}")

    x = clip.samples
    n = noise.samples
    p_sig = float(np.mean(x ** 2))
    p_noise = float(np.mean(n ** 2))
    if p_noise <= 0.0:
        raise DegenerateNoiseError("interference has zero power")

    gain = np.sqrt(p_sig / (power_ratio * p_noise))

    mixed = x + gain * n
    peak = float(np.max(np.abs(mixed)))
    peak_scale = 1.0
    if peak > 1.0:
        peak_scale = 1.0 / peak
        mixed = mixed * peak_scale

    out = AudioClip(samples=mixed, sample_rate_hz=clip.sample_rate_hz,
                    source_id=clip.source_id)
    return MixResult(clip=out, noise_gain=float(gain), peak_scale=peak_scale)
