"""WAV ingestion, preprocessing, and interference mixing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, resample_poly

from emosid.audio import (
    AudioClip,
    frame_and_window,
    hamming_window,
    _resample_filter,
    load_wav,
    mix_interference,
    pre_emphasize,
    resample,
    save_wav,
)
from emosid.errors import (
    AudioFormatError,
    ConfigError,
    DegenerateNoiseError,
    EmosidError,
    EmptyAudioError,
    RateMismatchError,
    UnsupportedCodecError,
)

from conftest import sine_clip


def _wav_bytes(pcm_frames, rate=16000, channels=1, audio_format=1, bits=16,
               extra_chunk=None):
    """Hand-rolled WAV container so the parser is tested independently."""
    if audio_format == 1:
        body = np.asarray(pcm_frames, dtype="<i2").tobytes()
    else:
        body = np.asarray(pcm_frames, dtype="<f4").tobytes()
    block = channels * bits // 8
    out = bytearray()
    out += b"WAVE"
    if extra_chunk is not None:
        out += extra_chunk
    out += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                                 rate * block, block, bits)
    out += b"data" + struct.pack("<I", len(body)) + body
    if len(body) % 2:
        out += b"\x00"
    return b"RIFF" + struct.pack("<I", len(out)) + bytes(out)


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(_wav_bytes([16384, 0, -32768]))
        clip = load_wav(p)
        assert clip.sample_rate_hz == 16000
        np.testing.assert_allclose(clip.samples, [0.5, 0.0, -1.0])

    def test_stereo_averaged(self, tmp_path):
        p = tmp_path / "st.wav"
        # interleaved L/R: frame (0.2, 0.4) in 16-bit units
        l, r = int(0.2 * 32768), int(0.4 * 32768)
        p.write_bytes(_wav_bytes([l, r, l, r], channels=2))
        clip = load_wav(p)
        np.testing.assert_allclose(clip.samples, [0.3, 0.3], atol=1e-4)

    def test_float32(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(_wav_bytes([0.25, -0.5], audio_format=3, bits=32))
        np.testing.assert_allclose(load_wav(p).samples, [0.25, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        # np.clip keeps NaN, so such a clip would reach the network
        p = tmp_path / "nan.wav"
        p.write_bytes(_wav_bytes([0.25, bad, -0.5], audio_format=3, bits=32))
        with pytest.raises(AudioFormatError, match="non-finite"):
            load_wav(p)

    def test_unknown_chunk_skipped(self, tmp_path):
        junk = b"LIST" + struct.pack("<I", 5) + b"junk!" + b"\x00"
        p = tmp_path / "j.wav"
        p.write_bytes(_wav_bytes([100, 200], extra_chunk=junk))
        assert len(load_wav(p).samples) == 2

    def test_not_riff(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(AudioFormatError):
            load_wav(p)

    def test_unsupported_codec(self, tmp_path):
        p = tmp_path / "ulaw.wav"
        p.write_bytes(_wav_bytes([0, 0], audio_format=7, bits=8))
        with pytest.raises(UnsupportedCodecError):
            load_wav(p)

    def test_empty_data(self, tmp_path):
        p = tmp_path / "empty.wav"
        p.write_bytes(_wav_bytes([]))
        with pytest.raises(EmptyAudioError):
            load_wav(p)

    def test_save_load_roundtrip(self, tmp_path):
        clip = sine_clip(440, 8000, duration_s=0.1)
        p = tmp_path / "rt.wav"
        save_wav(p, clip)
        back = load_wav(p)
        assert back.sample_rate_hz == 8000
        np.testing.assert_allclose(back.samples, clip.samples, atol=1.0 / 32767)


def _mangled_wav(args):
    """A valid WAV with one byte overwritten, cut after `cut` bytes."""
    frames, channels, audio_format, bits, pos, byte, cut = args
    data = bytearray(_wav_bytes(frames, channels=channels, audio_format=audio_format,
                                bits=bits))
    if pos < len(data):
        data[pos] = byte
    return bytes(data[:cut])


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=80),
    st.tuples(st.lists(st.integers(-32768, 32767), max_size=8), st.integers(1, 3),
              st.sampled_from([1, 2, 3]), st.sampled_from([8, 16, 32]),
              st.integers(0, 80), st.integers(0, 255), st.integers(0, 80)).map(_mangled_wav)))
def test_load_wav_raises_only_emosid_errors(tmp_path_factory, data):
    """Random bytes and mangled or truncated WAVs load, or raise an EmosidError."""
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(data)
    try:
        clip = load_wav(path)
    except EmosidError:
        return
    assert len(clip.samples) > 0 and np.all(np.abs(clip.samples) <= 1.0)


class TestResample:
    def test_identity_at_same_rate(self):
        clip = sine_clip(100, 12000)
        out = resample(clip, 12000)
        assert out.samples is clip.samples

    def test_downsampled_sine_matches_analytic(self):
        out = resample(sine_clip(100, 48000, amplitude=0.5), 12000)
        ref = sine_clip(100, 12000, amplitude=0.5)
        n = min(len(out.samples), len(ref.samples))
        # ignore filter edge effects at both ends
        sl = slice(200, n - 200)
        rms_out = np.sqrt(np.mean(out.samples[sl] ** 2))
        rms_ref = np.sqrt(np.mean(ref.samples[sl] ** 2))
        assert abs(rms_out - rms_ref) / rms_ref < 0.01
        np.testing.assert_allclose(out.samples[sl], ref.samples[sl], atol=0.01)

    def test_near_nyquist_rolloff(self):
        out = resample(sine_clip(5900, 48000, amplitude=0.5), 12000)
        ideal_rms = 0.5 / np.sqrt(2)
        rms = np.sqrt(np.mean(out.samples[200:-200] ** 2))
        # measured ~0.99 of ideal with the polyphase filter; spec window is wide
        assert 0.5 * ideal_rms <= rms <= 1.1 * ideal_rms

    def test_duration_preserved(self):
        clip = sine_clip(100, 44100, duration_s=1.0)
        out = resample(clip, 12000)
        assert abs(out.duration_s - clip.duration_s) <= 1.0 / 12000

    def test_rate_too_low(self):
        with pytest.raises(ConfigError):
            resample(sine_clip(100, 8000), 500)

    @settings(max_examples=40, deadline=None)
    @given(rate=st.sampled_from([8000, 16000, 22050, 44100]), length=st.integers(1, 3000),
           seed=st.integers(0, 2**16), dtype=st.sampled_from([np.float64, np.float32]))
    def test_cached_filter_matches_resample_poly(self, rate, length, seed, dtype):
        """The filter designed once per (up, down) gives resample_poly's default
        output byte for byte, in the samples' dtype."""
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, length).astype(dtype)
        out = resample(AudioClip(samples=x, sample_rate_hz=rate), 12000)
        up, down = 12000 // np.gcd(12000, rate), rate // np.gcd(12000, rate)
        want = resample_poly(x, up, down)
        assert out.samples.dtype == want.dtype and out.samples.tobytes() == want.tobytes()

    def test_cached_filter_is_read_only(self):
        h = _resample_filter(3, 4)
        assert h is _resample_filter(3, 4) and not h.flags.writeable
        resample(sine_clip(100, 16000), 12000)
        np.testing.assert_array_equal(h, _resample_filter.__wrapped__(3, 4))


class TestPreEmphasis:
    def test_alpha_zero_is_identity(self):
        clip = sine_clip(100, 8000)
        np.testing.assert_array_equal(pre_emphasize(clip, 0.0).samples, clip.samples)

    def test_direct_substitution(self):
        clip = AudioClip(np.array([1.0, 1.0, 1.0]), 8000)
        np.testing.assert_allclose(pre_emphasize(clip, 0.97).samples, [1.0, 0.03, 0.03])

    def test_dc_attenuation(self):
        clip = AudioClip(np.full(100, 0.5), 8000)
        out = pre_emphasize(clip, 0.97)
        np.testing.assert_allclose(out.samples[1:], 0.5 * 0.03)

    def test_inverse_filter_roundtrip(self, rng):
        clip = AudioClip(rng.uniform(-1, 1, 4000), 8000)
        back = lfilter([1.0], [1.0, -0.97], pre_emphasize(clip, 0.97).samples)
        np.testing.assert_allclose(back, clip.samples, atol=1e-9)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            pre_emphasize(sine_clip(100, 8000), 1.0)

    def test_empty_clip(self):
        with pytest.raises(EmptyAudioError):
            pre_emphasize(AudioClip(np.zeros(0), 8000), 0.97)


def fancy_index_frames(x, frame_len, hop_len):
    """The frames as one fancy-index gather, the strided view's reference."""
    num_frames = (len(x) - frame_len) // hop_len + 1
    idx = np.arange(frame_len)[None, :] + hop_len * np.arange(num_frames)[:, None]
    return x[idx] * hamming_window(frame_len)[None, :]


def assert_frames_match_fancy_index(x, rate, frame_ms, hop_ms):
    fs = frame_and_window(AudioClip(x, rate), frame_ms, hop_ms)
    want = fancy_index_frames(x, fs.frame_len, fs.hop_len)
    assert fs.frames.shape == want.shape and fs.frames.tobytes() == want.tobytes()


class TestFraming:
    def test_frame_len_16k_25ms(self):
        fs = frame_and_window(sine_clip(100, 16000), 25.0, 10.0)
        assert fs.frame_len == 400

    def test_frame_count_formula(self):
        fs = frame_and_window(sine_clip(100, 16000, duration_s=1.0), 25.0, 10.0)
        assert fs.num_frames == (16000 - 400) // 160 + 1 == 98

    def test_hamming_values_length_4(self):
        clip = AudioClip(np.ones(4), 4000)
        fs = frame_and_window(clip, 1.0, 1.0)
        n = np.arange(4)
        expected = 0.54 - 0.46 * np.cos(2 * np.pi * n / 3)
        np.testing.assert_allclose(fs.frames[0], expected, atol=1e-12)
        np.testing.assert_allclose(expected, [0.08, 0.77, 0.77, 0.08], atol=1e-12)

    def test_short_clip_yields_empty(self):
        clip = AudioClip(np.ones(10), 16000)
        fs = frame_and_window(clip, 25.0, 10.0)
        assert fs.num_frames == 0

    def test_no_overlap_partitions_prefix(self, rng):
        x = rng.uniform(-1, 1, 1000)
        clip = AudioClip(x, 1000)
        fs = frame_and_window(clip, 100.0, 100.0)  # frame 100, hop 100
        flat = (fs.frames / hamming_window(100)).ravel()
        np.testing.assert_allclose(flat, x[: len(flat)], atol=1e-12)
        assert fs.num_frames == 10

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            frame_and_window(sine_clip(100, 8000), 10.0, 20.0)

    @pytest.mark.parametrize("length, frame_ms, hop_ms, frames",
                             [(400, 25.0, 10.0, 1), (559, 25.0, 10.0, 1),
                              (560, 25.0, 10.0, 2), (1000, 25.0, 25.0, 2)],
                             ids=["frame-len", "frame-len-plus-hop-minus-1",
                                  "frame-len-plus-hop", "hop-equals-frame"])
    def test_strided_view_equals_fancy_index(self, rng, length, frame_ms, hop_ms, frames):
        x = rng.uniform(-1, 1, length)
        assert frame_and_window(AudioClip(x, 16000), frame_ms, hop_ms).num_frames == frames
        assert_frames_match_fancy_index(x, 16000, frame_ms, hop_ms)


@settings(max_examples=60, deadline=None)
@given(frame_len=st.integers(1, 64), hop_frac=st.floats(0.01, 1.0),
       extra=st.integers(0, 500), seed=st.integers(0, 2**16))
def test_strided_framing_equals_fancy_index_property(frame_len, hop_frac, extra, seed):
    """At 1000 Hz a millisecond is a sample: any frame, hop and length."""
    hop_len = max(1, round(frame_len * hop_frac))
    x = np.random.default_rng(seed).uniform(-1, 1, frame_len + extra)
    assert_frames_match_fancy_index(x, 1000, float(frame_len), float(hop_len))


class TestMixInterference:
    def test_unit_power_ratio_one_gain(self, rng):
        sig = AudioClip(np.sign(rng.standard_normal(5000)), 8000)  # unit power
        noise = AudioClip(np.sign(rng.standard_normal(5000)), 8000)
        res = mix_interference(sig, noise, 1.0)
        assert abs(res.noise_gain - 1.0) < 1e-6

    def test_measured_snr_over_20_pairs(self):
        # power ratio 2 must land at 10*log10(2) = 3.0103 dB within 0.1 dB
        for trial in range(20):
            r = np.random.default_rng(trial)
            sig = AudioClip(r.standard_normal(4000) * 0.2, 8000)
            noise = AudioClip(r.standard_normal(4000) * 0.3, 8000)
            res = mix_interference(sig, noise, 2.0)
            p_sig = np.mean(sig.samples ** 2)
            p_noise = np.mean((res.noise_gain * noise.samples) ** 2)
            snr_db = 10 * np.log10(p_sig / p_noise)
            assert abs(snr_db - 3.0103) < 0.1

    def test_noise_tiles_periodically(self):
        sig = AudioClip(np.zeros(10) + 0.1, 8000)
        noise = AudioClip(np.array([0.5, -0.5, 0.25]), 8000)
        res = mix_interference(sig, noise, 1.0, mode="amplitude")
        added = res.clip.samples - sig.samples
        np.testing.assert_allclose(added[3:6], added[:3])
        np.testing.assert_allclose(added[6:9], added[:3])

    def test_rate_mismatch(self):
        with pytest.raises(RateMismatchError):
            mix_interference(sine_clip(100, 8000), sine_clip(100, 16000), 2.0)

    @pytest.mark.parametrize("power_ratio, mode", [(0.0, "power"), (-2.0, "amplitude"),
                                                   (2.0, "db")])
    def test_bad_ratio_or_mode(self, power_ratio, mode):
        with pytest.raises(ConfigError):
            mix_interference(sine_clip(100, 8000), sine_clip(300, 8000), power_ratio, mode)

    def test_silent_noise(self):
        with pytest.raises(DegenerateNoiseError):
            mix_interference(sine_clip(100, 8000), AudioClip(np.zeros(100), 8000), 2.0)

    def test_peak_normalization_recorded(self):
        sig = AudioClip(np.full(100, 0.9), 8000)
        noise = AudioClip(np.full(100, 0.9), 8000)
        res = mix_interference(sig, noise, 1.0)
        assert res.peak_scale < 1.0
        assert np.max(np.abs(res.clip.samples)) <= 1.0 + 1e-12

    def test_amplitude_mode(self, rng):
        sig = AudioClip(rng.standard_normal(4000) * 0.1, 8000)
        noise = AudioClip(rng.standard_normal(4000) * 0.1, 8000)
        res = mix_interference(sig, noise, 2.0, mode="amplitude")
        rms_sig = np.sqrt(np.mean(sig.samples ** 2))
        rms_noise = np.sqrt(np.mean((res.noise_gain * noise.samples) ** 2))
        assert abs(rms_sig / rms_noise - 2.0) < 1e-6


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.0, 0.99), seed=st.integers(0, 2**16))
def test_pre_emphasis_invertible_property(alpha, seed):
    x = np.random.default_rng(seed).uniform(-1, 1, 256)
    clip = AudioClip(x, 8000)
    back = lfilter([1.0], [1.0, -alpha], pre_emphasize(clip, alpha).samples)
    np.testing.assert_allclose(back, x, atol=1e-9)
