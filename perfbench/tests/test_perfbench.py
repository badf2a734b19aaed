"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import speedometer  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from emosid import containers, corpus, gmm, pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyProtocol:
    """The protocol workload shrunk to seconds: 3 speakers, 5 epochs."""

    name = "tiny"
    setup_repeats = 2
    expected = workloads.Protocol.expected

    def setup(self, seed, workdir):
        spec = corpus.SynthSpec(num_speakers=3, sentences_per_split=2, repetitions=1,
                                duration_s=(0.8, 1.2), seed=seed)
        manifest = corpus.generate_synthetic(spec, workloads.fresh_dir(workdir, "corpus-"))
        return {"manifest": manifest,
                "cfg": pipeline.PipelineConfig(seed=seed, epochs=5, mixtures=4),
                "audio_s": 1.0}

    def work(self, state, seconds, passes=None, clock=None):
        return workloads.Protocol.work(self, state, seconds, passes,
                                       clock or time.perf_counter)

    def check(self, state, work):
        return workloads.Protocol.check(self, state, work)


def _args(trace):
    return argparse.Namespace(seed=3, seconds=0.0, trace=trace)


def _model_bytes(models):
    return (containers.save_tag_store(models.tag_store),
            containers.save_dnn(models.cascade_dnn), containers.save_dnn(models.dnn_only))


def test_traced_run_gives_identical_decisions_and_models(tmp_path):
    wl = TinyProtocol()
    # one corpus directory: the distorted pass depends on the WAV paths
    state = wl.setup(3, tmp_path)
    plain = wl.work(state, 0.0)
    with tracer.Tracer() as tr:
        with tr.phase("bench.work") as root:
            traced = wl.work(state, 0.0)
    assert [r.predicted_speaker for r in traced.outputs["records"]] == \
        [r.predicted_speaker for r in plain.outputs["records"]]
    assert [r.predicted_speaker for r in traced.outputs["distorted"]] == \
        [r.predicted_speaker for r in plain.outputs["distorted"]]
    assert _model_bytes(traced.outputs["models"]) == _model_bytes(plain.outputs["models"])

    summary = tr.summary(root)
    wall = tr.end[root] - tr.start[root]
    assert sum(v for v, _ in tracer.layer_times(summary).values()) == pytest.approx(wall)
    m = tracer.work_metrics(tr, root)
    calls = tr.calls_by_function()
    assert m["gmm.score_calls"][0] == calls["gmm.score_utterance"] > 0
    assert m["gmm.em_iterations"][0] == sum(
        t.train_meta["iterations"] for t in traced.outputs["models"].tag_store.tags.values())
    assert m["dnn.train_steps"][0] == 2 * 5 * -(-traced.outputs["models"].report[
        "train_segments"] // 32)
    # set-up ran before the tracer was installed
    assert tracer.silent_functions(wl.expected, calls) == ["corpus.generate_synthetic"]


def test_uninstall_restores_every_binding():
    before = (pipeline.interference_clip, corpus.interference_clip, gmm.score_utterance)
    with tracer.Tracer():
        # wrapped where it is looked up: pipeline imports it by name
        assert pipeline.interference_clip is not before[0]
        assert pipeline.interference_clip is corpus.interference_clip
    after = (pipeline.interference_clip, corpus.interference_clip, gmm.score_utterance)
    assert all(a is b for a, b in zip(after, before))


def test_absent_function_is_reported_not_raised():
    functions = tracer.LAYER_FUNCTIONS + (
        ("emosid.cascade", "no_such_function", "cascade.likelihood"),
        ("emosid.no_such_module", "f", "gmm.score"))
    with tracer.Tracer(functions) as tr:
        pass
    assert tr.absent == ["cascade.no_such_function", "no_such_module.f"]
    expected = ("gmm.score_utterance", "cascade.no_such_function")
    assert tracer.silent_functions(expected, tr.calls_by_function()) == ["gmm.score_utterance"]


def test_expected_functions_are_traced_functions():
    traced = {f"{m.rsplit('.', 1)[-1]}.{f}" for m, f, _ in tracer.LAYER_FUNCTIONS}
    for wl in workloads.WORKLOADS.values():
        assert set(wl.expected) <= traced, wl.name


def test_rescore_ratio_counts_each_frame_tag_once():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((10, 3))
    tag = gmm.em_fit(rng.standard_normal((50, 3)), 2, seed=0)
    with tracer.Tracer() as tr:
        with tr.phase("bench.work") as root:
            gmm.score_utterance(tag, data[0:6])
            gmm.score_utterance(tag, data[4:10])
            gmm.score_utterance(tag, data)
    m = tracer.work_metrics(tr, root)
    assert m["gmm.score_frame_tags"][0] == 22
    assert m["gmm.rescore_ratio"][0] == pytest.approx(2.2)


def test_metric_names_match_benchmark_json(tmp_path):
    wl = TinyProtocol()
    untraced = run.run_untraced(wl, _args(0), tmp_path)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, (value, unit) in untraced["metrics"].items():
        spec = next(m for m in SPEC["end_to_end"] if m["name"] == name)
        assert unit == spec["unit"] and value > 0, name

    traced = run.run_traced(wl, _args(1), tmp_path, tmp_path / "spans.json")
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, (_, unit) in traced["metrics"].items():
        assert unit == next(m for m in SPEC["per_layer"] if m["name"] == name)["unit"], name
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0


def test_extract_check_catches_a_corrupted_container(tmp_path):
    wl = workloads.Extract()
    state = wl.setup(5, tmp_path)
    work = wl.work(state, 0.0, passes=1)
    assert wl.check(state, work).failed == 0
    dest = next(iter(work.outputs["last"]))
    blob = bytearray(dest.read_bytes())
    blob[-1] ^= 1
    dest.write_bytes(bytes(blob))
    checked = wl.check(state, work)
    assert checked.failed == 1 and "bit-exact" in checked.problems[0]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extract",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speedometer_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speedometer.Speedometer() as sp:
        end = time.perf_counter() + 3 * speedometer.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
        assert time.perf_counter() - sp.clock() == pytest.approx(sp.spent, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sp.samples) >= 2 and sp.spent > 0
    assert sp.speed() > 0


def _record(workload, seed, trace, metrics, named=None):
    return {"workload": workload, "seed": seed, "trace": trace, "named": named or {},
            "result": {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def test_compare_flags_a_regression_and_reports_counts_as_counts():
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    base = [_record("w", s, 0, {"setup_s": (1.0 + 0.01 * s, "s")}) for s in range(5)]
    base += [_record("w", s, 1, {"gmm.score_calls": (100 + s, "count")}) for s in range(5)]
    same = [_record("w", s, 0, {"setup_s": (1.0 + 0.01 * s, "s")}) for s in range(5)]
    same += [_record("w", s, 1, {"gmm.score_calls": (100 + s, "count")}) for s in range(5)]
    lines, worse = compare.compare(base, same, spec)
    assert not worse
    assert any("gmm.score_calls" in line and "same on every seed" in line for line in lines)

    slow = [_record("w", s, 0, {"setup_s": (1.3, "s")}) for s in range(5)]
    slow += [_record("w", s, 1, {"gmm.score_calls": (90, "count")}) for s in range(5)]
    lines, worse = compare.compare(base, slow, spec)
    assert worse
    assert any("setup_s" in line and line.endswith("worse") for line in lines)
    assert any("gmm.score_calls" in line and "-60" in line for line in lines)
