"""MFCC front end, checked against slow straight-line oracles."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emosid.audio import AudioClip, frame_and_window, hamming_window
from emosid.errors import ConfigError
from emosid.features import (
    FeatureMatrix,
    build_filterbank,
    default_fft_size,
    hz_to_mel,
    mel_to_hz,
    mfcc,
    power_spectrum,
)


def direct_dft_power(frame, fft_size):
    """O(N^2) DFT power spectrum: the oracle power_spectrum must match."""
    x = np.zeros(fft_size)
    x[: len(frame)] = frame
    n = np.arange(fft_size)
    out = np.empty(fft_size // 2 + 1)
    for k in range(fft_size // 2 + 1):
        s = np.sum(x * np.exp(-2j * np.pi * k * n / fft_size))
        out[k] = (abs(s) ** 2) / fft_size
    return out


def textbook_dct2(v):
    """Orthonormal DCT-II written out from the definition."""
    n = len(v)
    out = np.empty(n)
    for k in range(n):
        out[k] = np.sum(v * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)))
    out *= np.sqrt(2.0 / n)
    out[0] /= np.sqrt(2.0)
    return out


def mfcc_oracle(frame, bank, num_coeffs, log_floor):
    power = direct_dft_power(frame, bank.fft_size)
    energies = np.array([np.sum(tri * power) for tri in bank.triangles])
    logs = np.log(np.maximum(energies, log_floor))
    return textbook_dct2(logs)[:num_coeffs]


class TestMelScale:
    def test_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_700(self):
        assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-9
        assert abs(hz_to_mel(700.0) - 781.17) < 0.01

    def test_1000_anchor(self):
        assert abs(hz_to_mel(1000.0) - 1000.0) < 0.1

    def test_inverse_trivials(self):
        assert mel_to_hz(0.0) == 0.0
        assert abs(mel_to_hz(hz_to_mel(4000.0)) - 4000.0) < 1e-6
        assert abs(mel_to_hz(781.17) - 700.0) < 0.01

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 8000.0))
    def test_round_trip_property(self, f):
        m = hz_to_mel(f)
        assert m >= 0
        back = mel_to_hz(m)
        assert abs(back - f) <= 1e-9 * max(f, 1.0)

    def test_strictly_monotone(self):
        grid = np.linspace(0, 6000, 2000)
        assert np.all(np.diff(hz_to_mel(grid)) > 0)


class TestPowerSpectrum:
    def test_zero_frame(self):
        np.testing.assert_array_equal(power_spectrum(np.zeros(64), 64), np.zeros(33))

    def test_unit_impulse_flat(self):
        frame = np.zeros(64)
        frame[0] = 1.0
        np.testing.assert_allclose(power_spectrum(frame, 64), 1.0 / 64)

    def test_bin_sinusoid_concentrated(self):
        n = np.arange(128)
        frame = np.cos(2 * np.pi * 16 * n / 128)
        p = power_spectrum(frame, 128)
        peak = p[16]
        others = np.delete(p, [15, 16, 17])
        assert np.all(others <= 1e-10 * peak)

    def test_matches_direct_dft(self, rng):
        frames = rng.standard_normal((10, 100))
        for frame in frames:
            fast = power_spectrum(frame, 128)
            slow = direct_dft_power(frame, 128)
            np.testing.assert_allclose(fast, slow, rtol=1e-6, atol=1e-12)
        # a frame per row, as mfcc calls it
        slow = np.stack([direct_dft_power(frame, 128) for frame in frames])
        np.testing.assert_allclose(power_spectrum(frames, 128), slow, rtol=1e-6, atol=1e-12)

    def test_parseval_consistency(self, rng):
        frame = rng.standard_normal(256)
        fast = power_spectrum(frame, 256)
        slow = direct_dft_power(frame, 256)
        assert abs(fast.sum() - slow.sum()) <= 1e-6 * slow.sum()

    @settings(max_examples=60, deadline=None)
    @given(log_fft=st.integers(0, 10), frame_frac=st.floats(0.0, 1.0),
           rows=st.integers(0, 6), seed=st.integers(0, 2**16),
           layout=st.sampled_from(["C", "F", "strided"]))
    def test_bytes_match_rfft_real_imag(self, log_fft, frame_frac, rows, seed, layout):
        """The in-place squaring gives (re**2 + im**2) / fft_size byte for byte,
        for one frame (rows 0) or a frame per row, in any memory layout."""
        fft_size = 2 ** log_fft
        frame_len = int(frame_frac * fft_size)
        shape = (frame_len,) if rows == 0 else (rows, frame_len)
        frame = np.random.default_rng(seed).standard_normal(shape)
        if layout == "F":
            frame = np.asfortranarray(frame)
        elif layout == "strided":
            frame = np.repeat(frame, 2, axis=-1)[..., ::2]
        spec = np.fft.rfft(frame, n=fft_size)
        want = (spec.real ** 2 + spec.imag ** 2) / fft_size
        got = power_spectrum(frame, fft_size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_row_ranges_into_out_give_the_bytes_of_the_whole(self, rng):
        """mfcc's per-range calls: each range writes its rows of out."""
        frames = rng.standard_normal((50, 300))
        out = np.empty((50, 257))
        for a, b in [(0, 1), (1, 17), (17, 50)]:
            assert power_spectrum(frames[a:b], 512, out[a:b]).base is out
        assert out.tobytes() == power_spectrum(frames, 512).tobytes()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            power_spectrum(np.zeros(10), 100)

    def test_rejects_short_fft(self):
        with pytest.raises(ConfigError):
            power_spectrum(np.zeros(300), 256)
        with pytest.raises(ConfigError):
            power_spectrum(np.zeros((4, 300)), 256)


class TestFilterbank:
    def test_default_fft_size(self):
        assert default_fft_size(300) == 512
        assert default_fft_size(256) == 256
        assert default_fft_size(1) == 1

    def test_boundary_count_and_span(self):
        bank = build_filterbank(26, 12000, 512, 0.0, 6000.0)
        assert len(bank.boundaries_hz) == 28
        assert bank.boundary_bins[0] == 0
        assert bank.boundary_bins[-1] == 256

    def test_no_spectral_gaps(self):
        bank = build_filterbank(26, 12000, 512, 0.0, 6000.0)
        interior = bank.triangles.sum(axis=0)[bank.boundary_bins[1]: bank.boundary_bins[-2]]
        assert np.all(interior > 0)

    def test_constant_mel_spacing(self):
        bank = build_filterbank(26, 12000, 512, 300.0, 6000.0)
        mels = hz_to_mel(bank.boundaries_hz)
        spacings = np.diff(mels)
        assert np.max(np.abs(spacings - spacings[0])) < 1e-9

    def test_triangle_shape(self):
        bank = build_filterbank(20, 16000, 512, 0.0, None)
        for k, tri in enumerate(bank.triangles):
            assert np.all(tri >= 0)
            assert tri[bank.boundary_bins[k + 1]] == 1.0
            assert tri[: bank.boundary_bins[k]].sum() == 0
            assert tri[bank.boundary_bins[k + 2] + 1:].sum() == 0

    def test_band_edge_errors(self):
        with pytest.raises(ConfigError):
            build_filterbank(26, 12000, 512, 0.0, 7000.0)  # beyond Nyquist
        with pytest.raises(ConfigError):
            build_filterbank(1, 12000, 512, 0.0, None)
        with pytest.raises(ConfigError):
            build_filterbank(26, 12000, 512, 5000.0, 4000.0)


class TestMfcc:
    @pytest.fixture
    def bank(self):
        return build_filterbank(26, 12000, 512, 0.0, 6000.0)

    def test_silent_frame_constant_cepstrum(self, bank):
        fm = mfcc(np.zeros((1, 300)), bank, 13, 1e-10)
        row = fm.data[0]
        assert abs(row[0] - np.log(1e-10) * np.sqrt(26)) < 1e-6
        np.testing.assert_allclose(row[1:], 0.0, atol=1e-9)

    def test_gain_shifts_only_c0(self, bank, rng):
        frame = rng.standard_normal(300) * 0.1
        a = mfcc(frame[None], bank, 13, 1e-10).data[0]
        b = mfcc(2 * frame[None], bank, 13, 1e-10).data[0]
        np.testing.assert_allclose(a[1:], b[1:], atol=1e-6)
        # log energies shift uniformly by log 4; orthonormal DCT puts the
        # whole shift into c0 as log(4)*sqrt(num_filters)
        assert abs((b[0] - a[0]) - np.log(4.0) * np.sqrt(26)) < 1e-6

    def test_matches_oracle_100_random_frames(self, bank, rng):
        frames = rng.standard_normal((100, 300)) * 0.2
        fast = mfcc(frames, bank, 13, 1e-10).data
        for i in range(100):
            slow = mfcc_oracle(frames[i], bank, 13, 1e-10)
            np.testing.assert_allclose(fast[i], slow, rtol=1e-6, atol=1e-9)

    def test_empty_frameset(self, bank):
        fm = mfcc(np.zeros((0, 300)), bank, 13, 1e-10)
        assert fm.data.shape == (0, 13)

    def test_all_entries_finite(self, bank, rng):
        # mixes silence (floor-bound) and loud content
        frames = np.vstack([np.zeros((3, 300)), rng.standard_normal((3, 300))])
        fm = mfcc(frames, bank, 13, 1e-10)
        assert np.all(np.isfinite(fm.data))
        assert fm.data.shape == (6, 13)

    def test_row_count_matches_frame_count(self, bank):
        clip = AudioClip(np.sin(np.linspace(0, 100, 12000)) * 0.3, 12000)
        frames = frame_and_window(clip, 25.0, 10.0)
        fm = mfcc(frames, bank, 13, 1e-10)
        assert fm.num_frames == len(frames)

    def test_too_many_coeffs(self, bank):
        with pytest.raises(ConfigError):
            mfcc(np.zeros((1, 300)), bank, 27, 1e-10)


def test_feature_matrix_data_is_read_only(rng):
    """The memo of gmm.frame_scores is keyed on the object, so its frames
    cannot be written through it; the caller's own array stays writeable."""
    own = rng.standard_normal((5, 3))
    fm = FeatureMatrix(own)
    with pytest.raises(ValueError):
        fm.data[0, 0] = 1.0
    with pytest.raises(ValueError):
        fm.data += 1.0
    assert own.flags.writeable and np.shares_memory(own, fm.data)
    assert fm.data.tobytes() == own.tobytes()


def test_feature_matrix_stays_read_only_through_pickle(rng):
    """Pool workers send features back by pickle; the copy is as read-only
    as the original and carries the same values and meta."""
    fm = FeatureMatrix(rng.standard_normal((5, 3)), {"source_id": "a.wav"})
    back = pickle.loads(pickle.dumps(fm))
    assert not back.data.flags.writeable
    with pytest.raises(ValueError):
        back.data[0, 0] = 1.0
    assert back.data.tobytes() == fm.data.tobytes() and back.meta == fm.meta
