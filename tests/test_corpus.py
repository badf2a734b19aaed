"""Manifests and the synthetic corpus generator."""

import json
import os
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.signal import butter

from emosid import corpus, workers
from emosid.corpus import (
    EMOTIONS,
    _pulse_positions,
    _rumble_filter,
    Manifest,
    ManifestEntry,
    SynthSpec,
    generate_synthetic,
    interference_clip,
    load_manifest,
    protocol_counts,
    save_manifest,
    synthesize_utterance,
    validate_manifest,
)
from emosid.errors import ValidationError

from conftest import (reference_generate_synthetic, reference_pulse_positions,
                      reference_synthesize_utterance)


def entry(**kw):
    base = dict(path="x.wav", speaker_id="spk00", emotion="neutral",
                sentence_id=0, repetition=0, split="train")
    base.update(kw)
    return ManifestEntry(**base)


class TestManifestValidation:
    def test_well_formed(self):
        entries = [entry(sentence_id=0), entry(sentence_id=1, split="test")]
        validate_manifest(Manifest(entries=entries))

    def test_unknown_emotion(self):
        with pytest.raises(ValidationError, match="bored"):
            validate_manifest(Manifest(entries=[entry(emotion="bored")]))

    def test_split_violation(self):
        entries = [entry(sentence_id=3), entry(sentence_id=3, split="test")]
        with pytest.raises(ValidationError, match="both train and test"):
            validate_manifest(Manifest(entries=entries))

    def test_missing_train_coverage(self):
        entries = [entry(), entry(emotion="happy", split="test", sentence_id=1)]
        with pytest.raises(ValidationError, match="happy"):
            validate_manifest(Manifest(entries=entries))


class TestLoadManifest:
    def test_jsonl_round_trip(self, tmp_path):
        entries = [entry(sentence_id=0), entry(sentence_id=1, split="test")]
        p = tmp_path / "m.jsonl"
        save_manifest(Manifest(entries=entries), p)
        back = load_manifest(p)
        assert back.entries == entries
        assert back.speaker_roster == ["spk00"]

    def test_ten_line_file(self, tmp_path):
        entries = ([entry(sentence_id=k) for k in range(5)]
                   + [entry(sentence_id=5 + k, split="test") for k in range(5)])
        p = tmp_path / "m.jsonl"
        save_manifest(Manifest(entries=entries), p)
        assert len(load_manifest(p).entries) == 10

    def test_csv(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,speaker_id,emotion,sentence_id,repetition,split\n"
                     "a.wav,spk00,neutral,0,0,train\n"
                     "b.wav,spk00,neutral,1,0,test\n")
        assert len(load_manifest(p).entries) == 2

    def test_missing_column_reported(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"path": "a.wav", "speaker_id": "s"}) + "\n")
        with pytest.raises(ValidationError, match="missing fields"):
            load_manifest(p)

    def test_bad_json_line_numbered(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("{broken\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_manifest(p)

    @pytest.mark.parametrize("value", ["first", None, 1e400, [1], 1.5, True], ids=repr)
    def test_bad_integer_field_jsonl(self, tmp_path, value):
        rows = [asdict(entry()), dict(asdict(entry(split="test")), repetition=value)]
        p = tmp_path / "m.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValidationError, match="^line 2: repetition .* is not an integer"):
            load_manifest(p)

    def test_bad_integer_field_csv(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,speaker_id,emotion,sentence_id,repetition,split\n"
                     "a.wav,spk00,neutral,0,0,train\n"
                     "b.wav,spk00,neutral,one,0,test\n")
        with pytest.raises(ValidationError, match="^line 3: sentence_id 'one' is not"):
            load_manifest(p)

    @pytest.mark.parametrize("line", [["path", "speaker_id", "emotion", "sentence_id",
                                       "repetition", "split"], 5, "path"], ids=repr)
    def test_line_not_an_object_misses_every_field(self, tmp_path, line):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValidationError, match="line 1: missing fields"):
            load_manifest(p)


class TestProtocolCounts:
    def test_factorial_product(self, tiny_corpus):
        _, manifest = tiny_corpus
        counts = protocol_counts(manifest)
        # 3 speakers x 6 emotions x 2 sentences x 1 repetition per split
        assert counts["splits"] == {"train": 36, "test": 36}
        assert counts["factorial"]["train"]["is_factorial"]
        assert counts["factorial"]["test"]["is_factorial"]

    def test_missing_tuple_flagged(self, tiny_corpus):
        _, manifest = tiny_corpus
        trimmed = Manifest(entries=manifest.entries[1:])
        fact = protocol_counts(trimmed)["factorial"]["train"]
        assert not fact["is_factorial"]
        dropped = manifest.entries[0]
        assert [dropped.speaker_id, dropped.emotion, dropped.sentence_id,
                dropped.repetition] in fact["missing"]

    def test_duplicate_does_not_hide_missing_tuple(self, tiny_corpus):
        """One entry absent and another duplicated: the count is right, the
        grid is not."""
        _, manifest = tiny_corpus
        dropped, kept = manifest.split_entries("train")[:2]
        entries = [e for e in manifest.entries if e is not dropped] + [kept]
        fact = protocol_counts(Manifest(entries=entries))["factorial"]["train"]
        assert not fact["is_factorial"]
        assert fact["missing"] == [[dropped.speaker_id, dropped.emotion,
                                    dropped.sentence_id, dropped.repetition]]


class TestSynthesize:
    def test_deterministic(self):
        spec = SynthSpec(num_speakers=2, seed=5)
        a = synthesize_utterance(spec, 0, "angry", 2, 1)
        b = synthesize_utterance(spec, 0, "angry", 2, 1)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_distinct_indices_distinct_audio(self):
        spec = SynthSpec(num_speakers=2, seed=5)
        a = synthesize_utterance(spec, 0, "neutral", 0, 0)
        b = synthesize_utterance(spec, 1, "neutral", 0, 0)
        assert len(a.samples) != len(b.samples) or not np.array_equal(a.samples, b.samples)

    def test_amplitude_bounded(self):
        spec = SynthSpec(num_speakers=1, seed=1)
        clip = synthesize_utterance(spec, 0, "angry", 0, 0)
        assert np.max(np.abs(clip.samples)) <= 1.0

    def test_duration_in_range(self):
        spec = SynthSpec(num_speakers=1, seed=2, duration_s=(1.0, 1.6))
        clip = synthesize_utterance(spec, 0, "sad", 1, 0)
        # unit-length rounding can stretch slightly past the nominal range
        assert 0.9 <= clip.duration_s <= 1.8


def corpus_cases(test):
    """Parametrizes test over the corpora compared byte for byte."""
    test = pytest.mark.parametrize("rate, duration_s, reps", [
        (12000, (1.0, 1.6), 2), (16000, (1.0, 1.6), 1), (12000, (4.0, 8.0), 1)])(test)
    return pytest.mark.parametrize("seed", [7, 11])(test)


class TestRenderAgainstReference:
    """The whole-array renderer against the per-pulse, per-utterance oracle in
    conftest: the same samples, the same WAV and manifest bytes."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 4000),
           fs=st.sampled_from([8000, 12000, 16000]), f0=st.floats(20.0, 400.0),
           jitter=st.floats(0.0, 0.9))
    @example(seed=0, n=0, fs=12000, f0=100.0, jitter=0.01)
    @example(seed=1, n=1, fs=12000, f0=100.0, jitter=0.01)
    def test_pulse_train(self, seed, n, fs, f0, jitter):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _pulse_positions(ours, n, fs, f0, jitter)
        assert got.tobytes() == reference_pulse_positions(theirs, n, fs, f0, jitter).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_pulse_chunk_grows(self):
        """Wide jitter at low pitch can need more normals than the first chunk
        holds; the grown chunk still matches, draw for draw."""
        grown = 0
        for seed in range(40):
            ours = DrawLog(np.random.default_rng(seed))
            theirs = np.random.default_rng(seed)
            got = _pulse_positions(ours, 3000, 12000, 50.0, 0.9)
            assert got.tobytes() == reference_pulse_positions(
                theirs, 3000, 12000, 50.0, 0.9).tobytes()
            assert ours.standard_normal() == theirs.standard_normal()
            grown += len(ours.sizes) > 3  # chunk, larger chunk(s), one draw per pulse, ours
        assert grown > 0

    @pytest.mark.parametrize("emotion", EMOTIONS)
    def test_utterance_samples(self, emotion):
        spec = SynthSpec(num_speakers=3, seed=5, separation=0.35)
        for speaker, sentence, rep in [(0, 0, 0), (2, 5, 1)]:
            got = synthesize_utterance(spec, speaker, emotion, sentence, rep)
            want = reference_synthesize_utterance(spec, speaker, emotion, sentence, rep)
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.source_id == want.source_id

    @corpus_cases
    def test_corpus_bytes(self, tmp_path, seed, rate, duration_s, reps):
        spec = SynthSpec(num_speakers=2, sentences_per_split=1, repetitions=reps,
                         sample_rate_hz=rate, duration_s=duration_s, seed=seed,
                         separation=0.35)
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        generate_synthetic(spec, ours)
        reference_generate_synthetic(spec, theirs)
        assert corpus_bytes(ours) == corpus_bytes(theirs)
        assert len(corpus_bytes(ours)) == 2 * 6 * 2 * reps + 1

    @corpus_cases
    def test_corpus_bytes_on_two_workers(self, tmp_path, seed, rate, duration_s, reps, pools,
                                          monkeypatch):
        """The same bytes when the utterances are rendered by two workers."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        self.test_corpus_bytes(tmp_path, seed, rate, duration_s, reps)
        assert pools.started == 1

    def test_small_corpus_starts_no_process(self, tmp_path, monkeypatch):
        spec = SynthSpec(num_speakers=2, sentences_per_split=1, repetitions=1,
                         duration_s=(0.5, 0.7), seed=7)
        assert 2 * 6 * 2 < workers.MIN_POOL_UTTERANCES

        def no_fork():
            raise AssertionError("forked below the size threshold")

        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert len(generate_synthetic(spec, tmp_path).entries) == 24


class DrawLog:
    """A Generator that records the size of every normal draw."""

    def __init__(self, rng):
        self.bit_generator, self.rng, self.sizes = rng.bit_generator, rng, []

    def standard_normal(self, size=None):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


def corpus_bytes(out_dir) -> dict:
    """Every file of a generated corpus by name, with the directory taken out of
    the manifest's paths."""
    out_dir = Path(out_dir)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    files["manifest.jsonl"] = files["manifest.jsonl"].replace(str(out_dir).encode(), b"DIR")
    return files


class TestGenerateSynthetic:
    def test_counts_and_layout(self, tiny_corpus, tmp_path):
        spec, manifest = tiny_corpus
        # 3 speakers x 6 emotions x 4 sentences x 1 rep = 72 utterances
        assert len(manifest.entries) == 72
        assert all(Path(e.path).exists() for e in manifest.entries)
        validate_manifest(manifest)

    def test_split_rule_first_sentences_train(self, tiny_corpus):
        _, manifest = tiny_corpus
        for e in manifest.entries:
            assert e.split == ("train" if e.sentence_id < 2 else "test")

    def test_byte_identical_given_seed(self, tmp_path):
        """A second call writes the same bytes, also after a call with another
        spec of the same seed, and no module-level cache keeps a synthesis table."""
        spec = SynthSpec(num_speakers=2, num_emotions=2, sentences_per_split=1,
                         repetitions=1, duration_s=(0.5, 0.7), seed=11)
        generate_synthetic(spec, tmp_path / "a")
        generate_synthetic(replace(spec, separation=0.35), tmp_path / "other")
        generate_synthetic(spec, tmp_path / "b")
        assert corpus_bytes(tmp_path / "a") == corpus_bytes(tmp_path / "b")
        caches = {name: fn.cache_info().currsize for name, fn in vars(corpus).items()
                  if hasattr(fn, "cache_info") and name != "_rumble_filter"}
        assert not any(caches.values()), caches

    def test_speaker_spectra_separated(self, tiny_corpus):
        """Between-speaker long-term spectral distance exceeds within-speaker
        distance on neutral utterances."""
        _, manifest = tiny_corpus
        from emosid.audio import load_wav

        def lt_spectrum(path):
            clip = load_wav(path)
            spec = np.abs(np.fft.rfft(clip.samples, n=4096)) ** 2
            spec = spec / spec.sum()
            return np.log(spec + 1e-12)

        by_speaker = {}
        for e in manifest.entries:
            if e.emotion == "neutral":
                by_speaker.setdefault(e.speaker_id, []).append(lt_spectrum(e.path))

        speakers = sorted(by_speaker)
        means = {s: np.mean(by_speaker[s], axis=0) for s in speakers}
        within = np.mean([np.linalg.norm(sp - means[s])
                          for s in speakers for sp in by_speaker[s]])
        between = np.mean([np.linalg.norm(means[a] - means[b])
                           for i, a in enumerate(speakers) for b in speakers[i + 1:]])
        assert between > within


class TestInterference:
    def test_deterministic_and_normalized(self):
        a = interference_clip(4000, 12000, (1, 2, 3))
        b = interference_clip(4000, 12000, (1, 2, 3))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert abs(np.max(np.abs(a.samples)) - 1.0) < 1e-12
        assert len(a.samples) == 4000

    def test_filter_designed_once_read_only(self):
        b, a = _rumble_filter(12000)
        assert (b, a) == _rumble_filter(12000)
        assert not b.flags.writeable and not a.flags.writeable
        want_b, want_a = butter(4, 150.0 / 6000.0, btype="low")
        assert b.tobytes() == want_b.tobytes() and a.tobytes() == want_a.tobytes()

    def test_mostly_low_frequency(self):
        clip = interference_clip(12000, 12000, (9,))
        spec = np.abs(np.fft.rfft(clip.samples)) ** 2
        freqs = np.fft.rfftfreq(12000, 1 / 12000)
        low = spec[freqs <= 300].sum()
        assert low / spec.sum() > 0.5


def test_emotion_roster_is_papers_six():
    assert EMOTIONS == ("neutral", "happy", "sad", "disgust", "angry", "fear")
