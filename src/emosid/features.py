"""Mel-frequency cepstral coefficient extraction.

Pipeline per frame: zero-padded FFT power spectrum -> triangular Mel
filterbank energies -> log -> orthonormal DCT-II, keeping the first
num_coeffs coefficients (c0 included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import workers
from .errors import ConfigError


def hz_to_mel(f):
    """Mel scale, base-10 convention: m = 2595*log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse Mel scale: f = 700*(10^(m/2595) - 1)."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _check_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ConfigError(f"fft_size must be a power of two, got {n}")


def default_fft_size(frame_len: int) -> int:
    """Smallest power of two >= frame_len."""
    n = 1
    while n < frame_len:
        n *= 2
    return n


def power_spectrum(frame: np.ndarray, fft_size: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """One-sided power spectral estimate |S(k)|^2 / fft_size, k = 0..fft_size/2,
    along the last axis (one frame, or a frame per row), written into out if
    given. Each frame's FFT and squares are its own, so a row range of frames
    gets the bytes of the same rows of the whole."""
    _check_power_of_two(fft_size)
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ConfigError(f"fft_size {fft_size} smaller than frame length {frame.shape[-1]}")
    spec = np.ascontiguousarray(np.fft.rfft(frame, n=fft_size))
    squares = spec.view(np.float64)  # re, im interleaved
    np.multiply(squares, squares, out=squares)
    power = np.add(squares[..., 0::2], squares[..., 1::2], out=out)
    power /= fft_size
    return power


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters equally spaced on the Mel scale."""

    triangles: np.ndarray  # (num_filters x fft_size//2 + 1)
    boundaries_hz: np.ndarray  # num_filters + 2 band-edge points
    boundary_bins: np.ndarray
    fft_size: int

    @property
    def num_filters(self) -> int:
        return self.triangles.shape[0]


def build_filterbank(num_filters: int, sample_rate_hz: int, fft_size: int,
                     low_hz: float, high_hz: float | None) -> MelFilterbank:
    """Construct the Mel filterbank over the one-sided FFT bins.

    num_filters + 2 boundary points are equally spaced in Mel between the
    band edges (high_hz None is Nyquist), mapped back to Hz, then snapped to
    DFT bins. Triangle k rises from boundary k-1 to a peak of 1 at boundary
    k and falls to boundary k+1.
    """
    _check_power_of_two(fft_size)
    nyquist = sample_rate_hz / 2.0
    if high_hz is None:
        high_hz = nyquist
    if num_filters < 2:
        raise ConfigError(f"need at least 2 filters, got {num_filters}")
    if not 0.0 <= low_hz < high_hz:
        raise ConfigError(f"bad band edges [{low_hz}, {high_hz}]")
    if high_hz > nyquist + 1e-9:
        raise ConfigError(f"high_hz {high_hz} beyond Nyquist {nyquist}")

    mels = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_filters + 2)
    boundaries_hz = mel_to_hz(mels)
    bins = np.floor((fft_size + 1) * boundaries_hz / sample_rate_hz).astype(int)
    bins = np.minimum(bins, fft_size // 2)

    num_bins = fft_size // 2 + 1
    triangles = np.zeros((num_filters, num_bins))
    for k in range(num_filters):
        left, center, right = bins[k], bins[k + 1], bins[k + 2]
        for j in range(left, center):
            triangles[k, j] = (j - left) / max(center - left, 1)
        triangles[k, center] = 1.0
        for j in range(center + 1, right):
            triangles[k, j] = (right - j) / max(right - center, 1)

    return MelFilterbank(triangles=triangles, boundaries_hz=boundaries_hz,
                         boundary_bins=bins, fft_size=fft_size)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame MFCC vectors for one utterance (frames x coefficients).

    ``data`` is a read-only view of the array given; that array is not to be
    changed afterwards. ``gmm.frame_scores`` keys its memo on the object, so
    an utterance's values must stay fixed for its life.
    """

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        view = np.asarray(self.data).view()
        view.flags.writeable = False
        object.__setattr__(self, "data", view)

    def __reduce__(self):
        # through the constructor, so that unpickled data is read-only too
        return type(self), (self.data, self.meta)

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]


def mfcc(frames: np.ndarray, bank: MelFilterbank, num_coeffs: int, log_floor: float,
         meta: dict | None = None) -> FeatureMatrix:
    """Compute MFCCs for every row of a (num_frames, frame_len) array of
    windowed frames, on every usable CPU; the bytes do not depend on the CPU
    count."""
    if num_coeffs > bank.num_filters:
        raise ConfigError(
            f"num_coeffs {num_coeffs} exceeds filter count {bank.num_filters}")
    if log_floor <= 0:
        raise ConfigError("log_floor must be positive")

    base_meta = dict(meta or {})
    base_meta.setdefault("num_filters", bank.num_filters)
    base_meta.setdefault("dct", "ortho-II")

    # the spectrum per row range of frames; the filterbank product stays
    # whole, as a product's last bits depend on its row count
    power = np.empty((len(frames), bank.fft_size // 2 + 1))
    workers.split_rows(
        lambda a, b: power_spectrum(frames[a:b], bank.fft_size, power[a:b]), len(frames))
    energies = power @ bank.triangles.T
    log_energies = np.log(np.maximum(energies, log_floor))
    coeffs = scipy.fft.dct(log_energies, type=2, norm="ortho", axis=1)[:, :num_coeffs]
    return FeatureMatrix(data=np.ascontiguousarray(coeffs), meta=base_meta)
