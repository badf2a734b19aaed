"""End-to-end CLI behaviour on a small synthetic corpus."""

import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from emosid import audio, cascade, containers, dnn, pipeline, workers
from emosid.cli import main

from conftest import run_python, v1_tag_store, v2_tag_store


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main(["synth", "--out", str(out), "--speakers", "3", "--sentences", "2",
                 "--repetitions", "1", "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def manifest_path(corpus_dir):
    return str(corpus_dir / "manifest.jsonl")


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, manifest_path):
    out = tmp_path_factory.mktemp("cli_models")
    code = main(["train", "--manifest", manifest_path, "--out", str(out),
                 "--epochs", "40", "--seed", "3"])
    assert code == 0
    return out


class TestSynthAndValidate:
    def test_synth_output(self, corpus_dir, capsys):
        # 3 x 6 x (2+2) x 1 = 72 files plus the manifest
        wavs = list(corpus_dir.glob("*.wav"))
        assert len(wavs) == 72
        assert (corpus_dir / "manifest.jsonl").exists()

    def test_validate_manifest(self, manifest_path, capsys):
        code, out, _ = run(capsys, "validate-manifest", manifest_path)
        assert code == 0
        report = json.loads(out)
        assert report["entries"] == 72
        assert len(report["speakers"]) == 3

    def test_validate_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "validate-manifest", "/nonexistent/m.jsonl")
        assert code == 1 and "error" in err


def test_cli_runs_openblas_on_one_thread(manifest_path):
    """The ``emosid`` program limits every loaded OpenBLAS to one thread, also
    when the environment leaves it at its default; main() called in-process
    leaves BLAS as it found it."""
    script = (
        "import ctypes, os, sys\n"
        "for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS'):\n"
        "    os.environ.pop(name, None)\n"
        "from emosid import cli\n"
        "def threads():\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        libs = {x.split()[-1] for x in fh if 'openblas' in x.lower() and '.so' in x}\n"
        "    return [getattr(ctypes.CDLL(lib), s)() for lib in sorted(libs)\n"
        "            for s in ('scipy_openblas_get_num_threads64_',\n"
        "                      'scipy_openblas_get_num_threads',\n"
        "                      'openblas_get_num_threads64_', 'openblas_get_num_threads')\n"
        "            if hasattr(ctypes.CDLL(lib), s)]\n"
        "default = threads()\n"
        "assert cli.main(['validate-manifest', sys.argv[1]]) == 0\n"
        "assert threads() == default\n"
        "assert cli.run(['validate-manifest', sys.argv[1]]) == 0\n"
        "print(threads())\n")
    proc = run_python(script, manifest_path)
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout.splitlines()[-1])
    assert threads and set(threads) == {1}


class TestExtract:
    def test_extract_then_skip(self, manifest_path, tmp_path, capsys):
        out = tmp_path / "feats"
        code, stdout, _ = run(capsys, "extract", "--manifest", manifest_path,
                              "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["written"] == 72

        code, stdout, _ = run(capsys, "extract", "--manifest", manifest_path,
                              "--out", str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["written"] == 0 and report["skipped"] == 72

        code, stdout, _ = run(capsys, "extract", "--manifest", manifest_path,
                              "--out", str(out), "--force")
        assert json.loads(stdout)["written"] == 72

    def test_unreadable_wav_reported_exit_2(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = (corpus_dir / "manifest.jsonl").read_text().splitlines()
        rows = [json.loads(x) for x in lines[:4]]
        rows[0]["path"] = str(tmp_path / "missing.wav")
        bad.write_text("\n".join(json.dumps(r) for r in rows))
        code, stdout, _ = run(capsys, "extract", "--manifest", str(bad),
                              "--out", str(tmp_path / "f"))
        report = json.loads(stdout)
        assert code == 2
        assert len(report["failures"]) == 1 and report["written"] == 3

    def test_same_result_on_two_workers(self, corpus_dir, tmp_path, capsys, pools,
                                        monkeypatch):
        """One missing WAV, one .feat already there: the summary, the exit code
        and every .feat byte are the same in-process and on two workers."""
        rows = [json.loads(x) for x in (corpus_dir / "manifest.jsonl").read_text().splitlines()]
        rows[1]["path"] = str(tmp_path / "missing.wav")
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        got = {}
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"feats{cpus}"
            out.mkdir()
            (out / (Path(rows[5]["path"]).stem + ".feat")).write_bytes(b"kept")
            code, stdout, _ = run(capsys, "extract", "--manifest", str(manifest),
                                  "--out", str(out))
            got[cpus] = code, stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert pools.started == 1
        assert got[1] == got[2]
        code, stdout, feats = got[2]
        report = json.loads(stdout)
        assert code == 2 and report["written"] == 70 and report["skipped"] == 1
        assert [f["path"] for f in report["failures"]] == [rows[1]["path"]]
        assert len(feats) == 71 and b"kept" in feats.values()


class TestTrain:
    def test_artifacts_written(self, model_dir):
        for name in ("tags.sidtags", "cascade.siddnn", "dnn_only.siddnn",
                     "tags.meta.json", "train_report.json"):
            assert (model_dir / name).exists(), name
        report = json.loads((model_dir / "train_report.json").read_text())
        assert report["report"]["num_tags"] == 18  # 3 speakers x 6 emotions

    def test_deterministic_artifacts(self, manifest_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "train", "--manifest", manifest_path,
                             "--out", str(out), "--epochs", "5", "--seed", "9")
            assert code == 0
        for name in ("tags.sidtags", "cascade.siddnn", "dnn_only.siddnn"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_train_gmm_trains_no_network(self, manifest_path, model_dir, tmp_path,
                                         capsys, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("train-gmm trained a network")

        monkeypatch.setattr(dnn, "train", no_network)
        out = tmp_path / "g"
        code, stdout, _ = run(capsys, "train-gmm", "--manifest", manifest_path,
                              "--out", str(out), "--seed", "3")
        assert code == 0
        assert json.loads(stdout)["report"]["num_tags"] == 18
        # the same tags as full training with the same settings
        assert (out / "tags.sidtags").read_bytes() == \
            (model_dir / "tags.sidtags").read_bytes()

    def test_train_gmm_only(self, manifest_path, tmp_path, capsys):
        out = tmp_path / "g"
        code, _, _ = run(capsys, "train-gmm", "--manifest", manifest_path,
                         "--out", str(out))
        assert code == 0
        assert (out / "tags.sidtags").exists()
        assert not (out / "cascade.siddnn").exists()


class TestIdentify:
    def test_json_record(self, corpus_dir, manifest_path, model_dir, capsys):
        wav = sorted(corpus_dir.glob("spk00_neutral_s2_*.wav"))[0]
        code, stdout, _ = run(capsys, "identify", "--wav", str(wav),
                              "--tags", str(model_dir / "tags.sidtags"),
                              "--dnn", str(model_dir / "cascade.siddnn"),
                              "--binary-mask")
        assert code == 0
        record = json.loads(stdout)
        assert record["decision"] in record["speakers"]
        assert abs(sum(record["posterior"]) - 1.0) < 1e-9
        assert sum(record["binary_mask"]) == 1.0
        assert record["gmm_decision"] in record["speakers"]
        assert isinstance(record["tie"], bool)
        assert record["per_segment"]


class TestModelFrontEnd:
    """identify and evaluate run the front end recorded in the tag store."""

    @pytest.fixture(scope="class")
    def wide_models(self, tmp_path_factory, manifest_path):
        out = tmp_path_factory.mktemp("wide_models")
        code = main(["train", "--manifest", manifest_path, "--out", str(out),
                     "--frame-ms", "40", "--hop-ms", "20", "--epochs", "5", "--seed", "3"])
        assert code == 0
        return out

    def test_identify_uses_the_models_front_end(self, corpus_dir, wide_models, capsys):
        wav = sorted(corpus_dir.glob("spk01_sad_s2_*.wav"))[0]
        code, stdout, _ = run(capsys, "identify", "--wav", str(wav),
                              "--tags", str(wide_models / "tags.sidtags"),
                              "--dnn", str(wide_models / "cascade.siddnn"))
        assert code == 0
        record = json.loads(stdout)
        store = containers.load_tag_store((wide_models / "tags.sidtags").read_bytes())
        net = containers.load_dnn((wide_models / "cascade.siddnn").read_bytes())
        cfg = pipeline.PipelineConfig(frame_ms=40.0, hop_ms=20.0)
        assert store.front_end == cfg.front_end()
        want = cascade.classify(store, net, pipeline.extract_features(audio.load_wav(wav), cfg),
                                cfg.segment_plan(), cfg.aggregation)
        assert record["decision"] == want.speaker_id
        assert record["posterior"] == want.posterior.tolist()

    def test_evaluate_report_echoes_the_models_front_end(self, manifest_path, wide_models,
                                                        tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"  # a shared config's front end is overridden
        cfg_path.write_text(json.dumps({"frame_ms": 25.0, "pre_emphasis": 0.5}))
        code, stdout, _ = run(capsys, "evaluate", "--manifest", manifest_path,
                              "--tags", str(wide_models / "tags.sidtags"),
                              "--dnn", str(wide_models / "cascade.siddnn"),
                              "--modes", "gmm", "--config", str(cfg_path))
        assert code == 0
        config = json.loads(stdout)["config"]
        assert (config["frame_ms"], config["hop_ms"], config["pre_emphasis"]) == (40, 20, 0.97)

    @pytest.mark.parametrize("command, flag, value", [
        ("identify", "--frame-ms", "25"), ("identify", "--pre-emphasis", "0.0"),
        ("identify", "--epochs", "7"), ("identify", "--mixtures", "64"),
        ("identify", "--hidden", "3"), ("evaluate", "--target-rate-hz", "8000"),
        ("evaluate", "--epochs", "7"), ("train-gmm", "--epochs", "7"),
        ("extract", "--mixtures", "4")])
    def test_unread_flag_is_unknown(self, command, flag, value, capsys):
        required = {"identify": ["--wav", "x", "--tags", "x", "--dnn", "x"],
                    "evaluate": ["--manifest", "x", "--tags", "x", "--dnn", "x"],
                    "train-gmm": ["--manifest", "x", "--out", "x"],
                    "extract": ["--manifest", "x", "--out", "x"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestEvaluate:
    def test_single_mode_report(self, manifest_path, model_dir, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--manifest", manifest_path,
                              "--tags", str(model_dir / "tags.sidtags"),
                              "--dnn", str(model_dir / "cascade.siddnn"),
                              "--modes", "gmm")
        assert code == 0
        report = json.loads(stdout)
        assert list(report["modes"]) == ["gmm"]
        assert ("gmm|normal") in report["modes"]["gmm"]["averages"]

    def test_all_modes_with_distort_and_text(self, manifest_path, model_dir, capsys):
        code, stdout, _ = run(capsys, "evaluate", "--manifest", manifest_path,
                              "--tags", str(model_dir / "tags.sidtags"),
                              "--dnn", str(model_dir / "cascade.siddnn"),
                              "--dnn-only", str(model_dir / "dnn_only.siddnn"),
                              "--distort", "--text")
        assert code == 0
        json_part, _, text_part = stdout.partition("\nmode: ")
        report = json.loads(json_part)
        assert set(report["modes"]) == {"gmm", "dnn", "cascade"}
        for mode in report["modes"]:
            assert f"{mode}|normal" in report["modes"][mode]["averages"]
            assert f"{mode}|distorted" in report["modes"][mode]["averages"]
        assert report["comparisons"]
        assert text_part  # human-readable table rendered

    def test_dnn_mode_requires_dnn_only_model(self, manifest_path, model_dir, capsys):
        code, _, err = run(capsys, "evaluate", "--manifest", manifest_path,
                           "--tags", str(model_dir / "tags.sidtags"),
                           "--dnn", str(model_dir / "cascade.siddnn"),
                           "--modes", "dnn")
        assert code == 1 and "dnn" in err


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, manifest_path, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 5, "mixtures": 4}))
        out = tmp_path / "m"
        code, stdout, _ = run(capsys, "train", "--manifest", manifest_path,
                              "--out", str(out), "--config", str(cfg_path),
                              "--epochs", "2")
        assert code == 0
        effective = json.loads(stdout)["report"]["config"]
        assert effective["epochs"] == 2      # flag wins
        assert effective["mixtures"] == 4    # file beats default

    def test_unknown_config_key(self, manifest_path, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learning_rat": 0.1}))
        code, _, err = run(capsys, "train", "--manifest", manifest_path,
                           "--out", str(tmp_path / "x"), "--config", str(cfg_path))
        assert code == 1 and "unknown config keys" in err


class TestTypedFailures:
    @pytest.mark.parametrize("flag, value", [("--segment-overlap", "1.5"),
                                             ("--epochs", "0"), ("--mixtures", "0"),
                                             ("--variance-floor", "0"),
                                             ("--variance-floor", "-1"), ("--hidden", "0")])
    def test_bad_config_exit_1_before_training(self, manifest_path, tmp_path, capsys,
                                               monkeypatch, flag, value):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a bad config")

        monkeypatch.setattr(pipeline, "train_models", no_training)
        code, _, err = run(capsys, "train", "--manifest", manifest_path,
                           "--out", str(tmp_path / "x"), flag, value)
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("args", [["--distort", "--snr-ratio", "0"],
                                      ["--config", {"snr_mode": "db"}],
                                      ["--config", {"aggregation": "median"}]],
                             ids=["snr-ratio", "snr-mode", "aggregation"])
    def test_bad_config_evaluate_exit_1_before_reading_audio(
            self, manifest_path, model_dir, tmp_path, capsys, monkeypatch, args):
        def no_audio(*args, **kwargs):
            raise AssertionError("read audio with a bad config")

        monkeypatch.setattr(audio, "load_wav", no_audio)
        if isinstance(args[-1], dict):
            (tmp_path / "cfg.json").write_text(json.dumps(args[-1]))
            args = [args[0], str(tmp_path / "cfg.json")]
        code, _, err = run(capsys, "evaluate", "--manifest", manifest_path,
                           "--tags", str(model_dir / "tags.sidtags"),
                           "--dnn", str(model_dir / "cascade.siddnn"), *args)
        assert code == 1 and err.startswith("error:")

    def test_non_finite_wav_identify_exit(self, model_dir, tmp_path, capsys):
        samples = np.sin(np.arange(12000) / 7.0).astype("<f4")
        samples[5000] = np.nan
        body = samples.tobytes()
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 12000, 48000, 4, 32)
        chunks = b"WAVE" + fmt + b"data" + struct.pack("<I", len(body)) + body
        wav = tmp_path / "nan.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
        code, _, err = run(capsys, "identify", "--wav", str(wav),
                           "--tags", str(model_dir / "tags.sidtags"),
                           "--dnn", str(model_dir / "cascade.siddnn"))
        assert code == 2 and "non-finite" in err

    @pytest.mark.parametrize("flags", [["--pre-emphasis", "1.5"],
                                       ["--frame-ms", "10", "--hop-ms", "20"],
                                       ["--frame-ms", "inf"]],
                             ids=["pre-emphasis", "framing", "frame-ms-inf"])
    def test_bad_front_end_exit_1_before_reading_audio(self, manifest_path, tmp_path,
                                                       capsys, monkeypatch, flags):
        def no_audio(*args, **kwargs):
            raise AssertionError("read audio with a bad config")

        monkeypatch.setattr(audio, "load_wav", no_audio)
        code, _, err = run(capsys, "extract", "--manifest", manifest_path,
                           "--out", str(tmp_path / "f"), *flags)
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--num-coeffs", "0"],
                                      ["--num-coeffs", "27"], ["--config", {"log_floor": 0}],
                                      ["--config", {"variance_floor": float("inf")}]],
                             ids=["seed", "num-coeffs-0", "num-coeffs-27", "log-floor",
                                  "variance-floor-Infinity"])
    def test_bad_config_train_gmm_exit_1_before_reading_audio(
            self, manifest_path, tmp_path, capsys, monkeypatch, args):
        def no_audio(*args, **kwargs):
            raise AssertionError("read audio with a bad config")

        monkeypatch.setattr(audio, "load_wav", no_audio)
        if isinstance(args[-1], dict):
            (tmp_path / "cfg.json").write_text(json.dumps(args[-1]))
            args = [args[0], str(tmp_path / "cfg.json")]
        code, _, err = run(capsys, "train-gmm", "--manifest", manifest_path,
                           "--out", str(tmp_path / "x"), *args)
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("values", [{"epochs": "5"}, {"mixtures": "8"},
                                        {"mixtures": 8.0}, {"standardize_inputs": 1},
                                        {"hidden_sizes": ["128"]}, {"learning_rate": True}],
                             ids=json.dumps)
    def test_config_file_wrong_type_exit_1(self, manifest_path, tmp_path, capsys,
                                           monkeypatch, values):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a bad config")

        monkeypatch.setattr(pipeline, "train_models", no_training)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        code, _, err = run(capsys, "train", "--manifest", manifest_path,
                           "--out", str(tmp_path / "x"), "--config", str(cfg_path))
        assert code == 1 and err.startswith("error:") and next(iter(values)) in err

    def test_non_positive_std_dnn_identify_exit_2(self, corpus_dir, model_dir, tmp_path,
                                                  capsys):
        net = containers.load_dnn((model_dir / "cascade.siddnn").read_bytes())
        mean, std = net.input_standardization
        net.input_standardization = (mean, np.where(np.arange(len(std)) == 2, 0.0, std))
        bad = tmp_path / "bad.siddnn"
        bad.write_bytes(containers.save_dnn(net))
        wav = sorted(corpus_dir.glob("spk00_neutral_s2_*.wav"))[0]
        code, out, err = run(capsys, "identify", "--wav", str(wav),
                             "--tags", str(model_dir / "tags.sidtags"), "--dnn", str(bad))
        assert code == 2 and not out and "Traceback" not in err
        assert err.startswith("error:") and "std must be positive" in err

    def test_version_1_tag_store_identify_exit_2(self, corpus_dir, model_dir, tmp_path,
                                                 capsys):
        store = containers.load_tag_store((model_dir / "tags.sidtags").read_bytes())
        old = tmp_path / "old.sidtags"
        old.write_bytes(v1_tag_store(store))
        wav = sorted(corpus_dir.glob("spk00_neutral_s2_*.wav"))[0]
        code, _, err = run(capsys, "identify", "--wav", str(wav), "--tags", str(old),
                           "--dnn", str(model_dir / "cascade.siddnn"))
        assert code == 2 and "version 1" in err

    def test_version_2_tag_store_identify_exit_2(self, corpus_dir, model_dir, tmp_path,
                                                 capsys):
        store = containers.load_tag_store((model_dir / "tags.sidtags").read_bytes())
        old = tmp_path / "old.sidtags"
        old.write_bytes(v2_tag_store(store))
        wav = sorted(corpus_dir.glob("spk00_neutral_s2_*.wav"))[0]
        code, _, err = run(capsys, "identify", "--wav", str(wav), "--tags", str(old),
                           "--dnn", str(model_dir / "cascade.siddnn"))
        assert code == 2 and "version 2" in err


class BadInputs:
    """Writes the bad inputs of the table below, each into tmp_path."""

    def __init__(self, tmp_path, corpus_dir, model_dir):
        self.tmp, self.out = tmp_path, str(tmp_path / "out")
        self.corpus = str(corpus_dir / "manifest.jsonl")
        self.rows = [json.loads(x) for x in Path(self.corpus).read_text().splitlines()]
        self.models = ["--tags", str(model_dir / "tags.sidtags"),
                       "--dnn", str(model_dir / "cascade.siddnn")]

    def short_wav(self):
        """100 samples at 12 kHz: shorter than one 25 ms frame."""
        path = self.tmp / "short.wav"
        audio.save_wav(path, audio.AudioClip(np.full(100, 0.1), 12000))
        return str(path)

    def manifest(self, row, name="m.jsonl", **changes):
        """The corpus manifest with changes made to one row: rows 0 and 1 are
        train entries, row 2 a test entry."""
        rows = list(self.rows)
        rows[row] = {**rows[row], **changes}
        return self.write_rows(rows, name)

    def write_rows(self, rows, name="m.jsonl"):
        path = self.tmp / name
        if path.suffix == ".csv":
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        else:
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(path)

    def no_tag_manifest(self):
        """The corpus manifest less the train rows of row 0's (speaker, emotion)."""
        tag = (self.rows[0]["speaker_id"], self.rows[0]["emotion"])
        return self.write_rows([r for r in self.rows if r["split"] != "train"
                                or (r["speaker_id"], r["emotion"]) != tag])

    def colliding_manifest(self):
        """Row 1 moved to b/<row 0's file name>: both would write one .feat."""
        return self.manifest(1, path=str(self.tmp / "b" / Path(self.rows[0]["path"]).name))

    def list_line_manifest(self):
        """The corpus manifest and a last line that lists the field names."""
        path = self.tmp / "m.jsonl"
        path.write_text(Path(self.corpus).read_text() + json.dumps(list(self.rows[0])) + "\n")
        return str(path)

    def raw(self, name, data):
        path = self.tmp / name
        path.write_bytes(data)
        return str(path)

    def config(self, text):
        path = self.tmp / "cfg.json"
        path.write_text(text)
        return ["--config", str(path)]


# case -> (argv from a BadInputs, exit code, text the error names)
BAD_INPUTS = {
    "identify-short-wav": (lambda b: ["identify", "--wav", b.short_wav(), *b.models],
                           1, "short.wav: shorter than one frame"),
    "train-gmm-short-wav": (lambda b: ["train-gmm", "--manifest",
                                       b.manifest(0, path=b.short_wav()), "--out", b.out],
                            1, "short.wav: shorter than one frame"),
    "evaluate-short-wav": (lambda b: ["evaluate", "--manifest",
                                      b.manifest(2, path=b.short_wav()), *b.models,
                                      "--modes", "cascade"],
                           1, "short.wav: shorter than one frame"),
    "train-gmm-missing-wav": (lambda b: ["train-gmm", "--manifest",
                                         b.manifest(0, path=str(b.tmp / "gone.wav")),
                                         "--out", b.out], 1, "gone.wav"),
    "evaluate-missing-wav": (lambda b: ["evaluate", "--manifest",
                                        b.manifest(2, path=str(b.tmp / "gone.wav")),
                                        *b.models, "--modes", "cascade"], 1, "gone.wav"),
    "train-tag-without-data": (lambda b: ["train", "--manifest", b.no_tag_manifest(),
                                          "--out", b.out],
                               1, "no train entry for speaker spk00 emotion neutral"),
    "extract-short-wav": (lambda b: ["extract", "--manifest",
                                     b.manifest(0, path=b.short_wav()), "--out", b.out],
                          2, "short.wav: shorter than one frame"),
    "config-malformed": (lambda b: ["train", "--manifest", b.corpus, "--out", b.out,
                                    *b.config('{"epochs": 5')], 1, "cfg.json: bad JSON"),
    "config-not-object": (lambda b: ["train", "--manifest", b.corpus, "--out", b.out,
                                     *b.config("5")], 1, "cfg.json: not a JSON object"),
    "config-wrong-type": (lambda b: ["train", "--manifest", b.corpus, "--out", b.out,
                                     *b.config('{"epochs": "5"}')], 1, "'epochs'"),
    "identify-wav-dir": (lambda b: ["identify", "--wav", str(b.tmp), *b.models],
                         1, "Is a directory"),
    "identify-tags-dir": (lambda b: ["identify", "--wav", b.short_wav(), *b.models[2:],
                                     "--tags", str(b.tmp)], 1, "Is a directory"),
    "manifest-row-jsonl": (lambda b: ["validate-manifest", b.manifest(1, repetition="first")],
                           1, "line 2: repetition 'first' is not an integer"),
    "manifest-row-csv": (lambda b: ["validate-manifest",
                                    b.manifest(1, "m.csv", sentence_id="one")],
                         1, "line 3: sentence_id 'one' is not an integer"),
    "manifest-list-line": (lambda b: ["validate-manifest", b.list_line_manifest()],
                           1, "line 73: missing fields"),
    "manifest-not-utf8-jsonl": (lambda b: ["validate-manifest",
                                           b.raw("m.jsonl", b'\xff\xfe{"a": 1}\n')],
                                1, "m.jsonl: not UTF-8"),
    "manifest-not-utf8-csv": (lambda b: ["validate-manifest",
                                         b.raw("m.csv", b"path,speaker_id\n\xff\n")],
                              1, "m.csv: not UTF-8"),
    "extract-colliding-stems": (lambda b: ["extract", "--manifest", b.colliding_manifest(),
                                           "--out", b.out], 1, "same feature file"),
}


class TestBadInputs:
    """Every bad input ends in its exit code with a message, never a traceback."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_exit_code_and_message(self, case, corpus_dir, model_dir, tmp_path, capsys):
        argv, want_code, names = BAD_INPUTS[case]
        code, out, err = run(capsys, *argv(BadInputs(tmp_path, corpus_dir, model_dir)))
        assert code == want_code
        assert "Traceback" not in err
        written = {p.name for p in (tmp_path / "out").rglob("*")}
        if code == 2:  # extract reports each failed entry and writes the rest
            failures = json.loads(out)["failures"]
            assert len(failures) == 1 and names in failures[0]["error"]
            assert len(written) == 71 and "short.feat" not in written
        else:
            assert err.startswith("error:") and names in err
            assert not written

    @pytest.mark.parametrize("case", ["train-gmm-short-wav", "evaluate-short-wav",
                                      "train-gmm-missing-wav", "evaluate-missing-wav",
                                      "extract-short-wav"])
    def test_same_exit_from_a_worker(self, case, corpus_dir, model_dir, tmp_path, capsys,
                                     monkeypatch):
        """The stage runs on two workers; their errors keep type and message."""
        monkeypatch.setattr(workers, "MIN_POOL_UTTERANCES", 0)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        self.test_exit_code_and_message(case, corpus_dir, model_dir, tmp_path, capsys)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_synth_wav_path_is_a_directory(self, tmp_path, capsys, pools, monkeypatch, cpus):
        """A directory where one WAV would go: exit 1 naming it, no manifest.
        On two workers the OSError comes back from a worker as itself."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        blocked = tmp_path / "spk00_neutral_s0_r0.wav"
        blocked.mkdir()
        code, _, err = run(capsys, "synth", "--out", str(tmp_path), "--speakers", "2",
                           "--sentences", "1", "--repetitions", "1")
        assert code == 1
        assert err.startswith("error:") and "Is a directory" in err and str(blocked) in err
        assert "Traceback" not in err
        assert not (tmp_path / "manifest.jsonl").exists()
        assert pools.started == cpus - 1

    def test_dead_worker_exit_2(self, manifest_path, model_dir):
        """A worker that dies ends the run with exit 2 and an error line, not a
        traceback or a hang."""
        script = (
            "import os, sys\n"
            "from emosid import cli, pipeline, workers\n"
            "workers.MIN_POOL_UTTERANCES = 0\n"
            "workers._usable_cpus = lambda: 2\n"
            "parent, load = os.getpid(), pipeline.load_entry_features\n"
            "def dies_in_a_worker(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return load(*args, **kwargs)\n"
            "pipeline.load_entry_features = dies_in_a_worker\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = run_python(script, "evaluate", "--manifest", manifest_path,
                          "--tags", str(model_dir / "tags.sidtags"),
                          "--dnn", str(model_dir / "cascade.siddnn"), "--modes", "cascade")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: a worker process died")
        assert "Traceback" not in proc.stderr
