"""Pipeline orchestration: feature extraction wiring, training, reports."""

import ast
import dataclasses
import importlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from emosid import containers, workers
from emosid.audio import AudioClip, load_wav, save_wav
from emosid.corpus import Manifest, SynthSpec, generate_synthetic
from emosid.errors import ConfigError, EmosidError, EmptyAudioError, ValidationError
from emosid.evaluation import TrialRecord, sid_performance
from emosid.pipeline import (
    PipelineConfig,
    build_bank,
    evaluate_models,
    evaluation_report,
    extract_features,
    load_entry_features,
    train_models,
    train_tags,
)
from emosid.workers import parallel_map

from conftest import run_python


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe_corpus")
    spec = SynthSpec(num_speakers=3, sentences_per_split=2, repetitions=2,
                     duration_s=(0.8, 1.2), seed=3)
    manifest = generate_synthetic(spec, str(out))
    cfg = PipelineConfig(seed=3, epochs=40)
    models = train_models(manifest, cfg)
    return manifest, cfg, models


def test_bank_built_once_per_front_end_and_read_only():
    bank = build_bank(PipelineConfig())
    assert build_bank(PipelineConfig(epochs=3)) is bank  # same front end
    assert build_bank(PipelineConfig(num_filters=30)) is not bank
    for array in (bank.triangles, bank.boundaries_hz, bank.boundary_bins):
        assert not array.flags.writeable


def test_entry_features_are_the_front_end(tmp_path):
    """A 16 kHz entry goes through the one front end: load, then extract."""
    spec = SynthSpec(num_speakers=2, sentences_per_split=1, repetitions=1,
                     duration_s=(0.5, 0.6), sample_rate_hz=16000, seed=5)
    manifest = generate_synthetic(spec, str(tmp_path))
    cfg = PipelineConfig(seed=5)
    for e in manifest.entries[:4]:
        got = load_entry_features(e, cfg)
        want = extract_features(load_wav(e.path), cfg)
        np.testing.assert_array_equal(got.data, want.data)
        assert got.meta == want.meta and got.meta["source_id"] == e.path


@pytest.mark.parametrize("field, value", [("segment_overlap", 1.5), ("segment_frames", 0),
                                          ("epochs", 0), ("batch_size", 0),
                                          ("learning_rate", 0.0), ("lr_decay", 1.5),
                                          ("pre_emphasis", 1.5), ("hop_ms", 30.0),
                                          ("frame_ms", 0.0), ("target_rate_hz", 500),
                                          ("num_filters", 1), ("fft_size", 100),
                                          ("fft_size", 256), ("mixtures", 0),
                                          ("variance_floor", 0.0), ("variance_floor", -1.0),
                                          ("hidden_sizes", (0,)), ("snr_ratio", 0.0),
                                          ("aggregation", "median"), ("fft_size", 0),
                                          ("seed", -1), ("num_coeffs", 0),
                                          ("num_coeffs", 27), ("log_floor", 0.0),
                                          ("aggregation", "geometric")])
def test_config_validated_at_construction(field, value):
    with pytest.raises(ConfigError):
        PipelineConfig(**{field: value})


FLOAT_FIELDS = ["pre_emphasis", "frame_ms", "hop_ms", "log_floor", "low_hz", "high_hz",
                "variance_floor", "segment_overlap", "learning_rate", "lr_decay",
                "snr_ratio"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", FLOAT_FIELDS + ["target_rate_hz"])
def test_config_refuses_non_finite(field, value):
    with pytest.raises(ConfigError, match="not finite"):
        PipelineConfig(**{field: value})


def test_empty_clip_is_a_typed_error():
    with pytest.raises(EmptyAudioError):
        extract_features(AudioClip(np.zeros(0), 16000), PipelineConfig())


def test_clip_shorter_than_one_frame_is_a_validation_error():
    clip = AudioClip(np.full(100, 0.1), 12000, source_id="short.wav")
    with pytest.raises(ValidationError, match="^short.wav: shorter than one frame$"):
        extract_features(clip, PipelineConfig())


@pytest.mark.parametrize("field, value", [("mixtures", 8.0), ("epochs", "5"), ("seed", 1.5),
                                          ("hidden_sizes", (128.0,)), ("hidden_sizes", 128),
                                          ("learning_rate", True), ("fft_size", 512.0)])
def test_config_refuses_wrong_type(field, value):
    with pytest.raises(ConfigError, match=f"'{field}'"):
        PipelineConfig(**{field: value})


def test_readme_library_example_imports_resolve():
    """Every name the README's Library example imports, from the package
    root or a module, is still there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.walk(ast.parse(code)) if isinstance(node, ast.ImportFrom)]
    assert any(node.module == "emosid" for node in imports)
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_config_takes_json_forms():
    cfg = PipelineConfig(hidden_sizes=[64, 32], learning_rate=1, fft_size=None)
    assert cfg.hidden_sizes == (64, 32) and cfg.learning_rate == 1


def test_t_test_samples_follow_manifest_repetition():
    """Samples are rates per manifest repetition, whatever the paths look like:
    here '_r' appears in the directory name and in no file name."""
    records = []
    for mode, wrong in (("gmm", {0}), ("cascade", set())):
        for k in range(8):
            rep = k % 2
            predicted = "b" if k in wrong else "a"
            records.append(TrialRecord(f"/data/my_run/utt{k}.wav", "a", predicted,
                                       "neutral", classifier_mode=mode, repetition=rep))
    report = evaluation_report(records, PipelineConfig())
    (t_test,) = report["t_tests"]
    assert t_test["modes"] == ["cascade", "gmm"]
    assert t_test["samples"] == [[100.0, 100.0], [75.0, 100.0]]


class TestTrainModels:
    def test_tag_count_and_report(self, trained):
        manifest, cfg, models = trained
        assert len(models.tag_store) == 18
        assert models.report["train_utterances"] == 72
        assert models.report["config"]["seed"] == 3
        assert np.isfinite(models.report["cascade_final_loss"])

    def test_cascade_dnn_shapes(self, trained):
        _, _, models = trained
        assert models.cascade_dnn.input_size == 18
        assert models.cascade_dnn.output_size == 3
        assert models.dnn_only.input_size == 26  # mean+std of 13 coefficients
        assert models.cascade_dnn.input_standardization is not None

    def test_empty_train_split_rejected(self, trained):
        manifest, cfg, _ = trained
        from emosid.corpus import Manifest
        test_only = Manifest(entries=manifest.split_entries("test"))
        with pytest.raises(ValidationError):
            train_models(test_only, cfg)


class TestEvaluateModels:
    def test_records_cover_modes_and_emotions(self, trained):
        manifest, cfg, models = trained
        records = evaluate_models(manifest, models, cfg)
        modes = {r.classifier_mode for r in records}
        assert modes == {"gmm", "dnn", "cascade"}
        n_test = len(manifest.split_entries("test"))
        assert len(records) == 3 * n_test
        assert all(r.condition == "normal" for r in records)
        repetition = {e.path: e.repetition for e in manifest.split_entries("test")}
        assert all(r.repetition == repetition[r.utterance_id] for r in records)

    def test_front_end_must_be_the_models(self, trained):
        manifest, cfg, models = trained
        assert models.tag_store.front_end == cfg.front_end()
        with pytest.raises(ConfigError, match="front end"):
            evaluate_models(manifest, models, PipelineConfig(seed=3, pre_emphasis=0.0))

    def test_distorted_condition_labeled(self, trained):
        manifest, cfg, models = trained
        records = evaluate_models(manifest, models, cfg, modes=("gmm",), distort=True)
        assert all(r.condition == "distorted" for r in records)

    def test_distortion_independent_of_corpus_directory(self, tmp_path):
        spec = SynthSpec(num_speakers=2, sentences_per_split=1, repetitions=1,
                         duration_s=(0.5, 0.6), seed=4)
        first = generate_synthetic(spec, str(tmp_path / "one"))
        second = generate_synthetic(spec, str(tmp_path / "nested" / "two"))
        cfg = PipelineConfig(seed=4)
        for a, b in zip(first.split_entries("test"), second.split_entries("test")):
            assert a.path != b.path
            fa = load_entry_features(a, cfg, distort=True)
            fb = load_entry_features(b, cfg, distort=True)
            np.testing.assert_array_equal(fa.data, fb.data)
            assert not np.array_equal(fa.data, load_entry_features(a, cfg).data)

    def test_unknown_mode_rejected(self, trained):
        manifest, cfg, models = trained
        with pytest.raises(ValidationError):
            evaluate_models(manifest, models, cfg, modes=("gmm", "svm"))

    def test_report_structure(self, trained):
        manifest, cfg, models = trained
        records = evaluate_models(manifest, models, cfg)
        report = evaluation_report(records, cfg)
        assert set(report["modes"]) == {"gmm", "dnn", "cascade"}
        for block in report["modes"].values():
            assert block["confusion_speakers"] == manifest.speaker_roster
        assert len(report["comparisons"]) == 3  # pairwise over three modes
        # t-tests over per-repetition rates: 2 repetitions -> valid samples
        assert all(len(t["samples"][0]) == 2 for t in report["t_tests"])

    def test_report_deterministic(self, trained):
        import json
        manifest, cfg, models = trained
        records = evaluate_models(manifest, models, cfg)
        a = json.dumps(evaluation_report(records, cfg), sort_keys=True)
        b = json.dumps(evaluation_report(
            evaluate_models(manifest, models, cfg), cfg), sort_keys=True)
        assert a == b


def test_separation_monotonicity(tmp_path):
    """Lowering speaker separation never raises GMM-alone accuracy."""
    rates = []
    for sep in (1.0, 0.45, 0.15):
        out = tmp_path / f"sep_{sep}"
        spec = SynthSpec(num_speakers=3, sentences_per_split=2, repetitions=2,
                         duration_s=(0.8, 1.2), seed=3, separation=sep)
        manifest = generate_synthetic(spec, str(out))
        cfg = PipelineConfig(seed=3, epochs=2)  # only the GMM side matters here
        models = train_models(manifest, cfg)
        records = evaluate_models(manifest, models, cfg, modes=("gmm",))
        rates.append(sid_performance(records).averages[("gmm", "normal")])
    assert rates[0] >= rates[1] >= rates[2], rates


def _outputs(manifest, cfg) -> tuple:
    """Every byte train and evaluate produce: models, report, records."""
    models = train_models(manifest, cfg)
    return (containers.save_tag_store(models.tag_store),
            containers.save_dnn(models.cascade_dnn), containers.save_dnn(models.dnn_only),
            json.dumps(models.report, sort_keys=True),
            evaluate_models(manifest, models, cfg),
            evaluate_models(manifest, models, cfg, distort=True))


class TestParallelMap:
    def test_outputs_do_not_depend_on_cpu_count(self, trained, pools, monkeypatch):
        manifest, _, _ = trained
        cfg = PipelineConfig(seed=3, epochs=5)
        got = {}
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            got[cpus] = _outputs(manifest, cfg)
        assert pools.started == 4  # train: tags, networks; evaluate: normal, distorted
        assert got[1] == got[2]

    def test_small_stage_starts_no_process(self, trained, monkeypatch):
        manifest, _, _ = trained
        assert len(manifest.split_entries("test")) < workers.MIN_POOL_UTTERANCES

        def no_fork():
            raise AssertionError("forked below the size threshold")

        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        cfg = PipelineConfig(seed=3, epochs=2)
        evaluate_models(manifest, train_models(manifest, cfg), cfg, modes=("gmm",))

    def test_order_kept_and_one_item_in_process(self, pools, monkeypatch):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        assert parallel_map(lambda i: (i, os.getpid()), 1, 1) == [(0, os.getpid())]
        assert pools.started == 0
        got = parallel_map(lambda i: (i, os.getpid()), 40, 40)
        assert pools.started == 1
        assert [i for i, _ in got] == list(range(40))
        assert os.getpid() not in {pid for _, pid in got}


class TestWorkerFailures:
    """An error in a worker reaches the caller as itself."""

    @pytest.fixture
    def broken(self, trained, tmp_path):
        """The trained corpus with one train and one test entry replaced."""
        manifest, _, models = trained
        save_wav(tmp_path / "short.wav", AudioClip(np.full(100, 0.1), 12000))

        def with_path(split, path):
            entries = list(manifest.entries)
            k = next(i for i, e in enumerate(entries) if e.split == split)
            entries[k] = dataclasses.replace(entries[k], path=str(path))
            return Manifest(entries=entries)
        return with_path, models

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("name, error, message", [
        ("short.wav", ValidationError, "short.wav: shorter than one frame"),
        ("gone.wav", FileNotFoundError, "gone.wav")])
    def test_typed_error_from_a_worker(self, broken, pools, monkeypatch, tmp_path, split,
                                       name, error, message):
        with_path, models = broken
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        manifest = with_path(split, tmp_path / name)
        cfg = PipelineConfig(seed=3, epochs=2)
        with pytest.raises(error, match=message) as info:
            if split == "train":
                train_tags(manifest, cfg)
            else:
                evaluate_models(manifest, models, cfg, modes=("gmm",))
        assert pools.started == 1
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"  # from a worker

    def test_dead_worker_is_an_emosid_error(self):
        script = (
            "import os\n"
            "from emosid import workers\n"
            "from emosid.errors import EmosidError\n"
            "workers.MIN_POOL_UTTERANCES = 0\n"
            "workers._usable_cpus = lambda: 2\n"
            "parent = os.getpid()\n"
            "try:\n"
            "    workers.parallel_map(lambda i: os._exit(3) if os.getpid() != parent else i,"
            " 4, 4)\n"
            "except EmosidError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("EmosidError a worker process died")
