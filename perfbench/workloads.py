"""The benchmark's three workloads.

Each workload is one process and one client in a closed loop: the next
operation starts when the previous one has returned. A workload has a
set-up (untimed by the work metrics, reported as setup_s), a measured
phase (``work``) and an output check. Inputs come only from the seed.
``work`` times itself with the ``clock`` it is given, so that the
speedometer's samples can be left out.

All calls into emosid go through module attributes (``pipeline.train_models``,
not an imported name), so the tracer's wrappers see them.

Corpus size: the acceptance corpus (10 speakers x 6 emotions x 8 sentences
x 3 repetitions) takes about 85 s per experiment on a 2-core box, which a
benchmark run cannot afford. Every workload uses the same voices with one
repetition instead (480 utterances, about 500 training segments); per-tag
scoring work per frame, the segment plan and the model sizes are unchanged.
"""

from __future__ import annotations

import tempfile
import time
import traceback
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emosid import audio, cascade, containers, corpus, gmm, pipeline

CORPUS = {"num_speakers": 10, "repetitions": 1, "separation": 0.35}
LONG_REQUEST_S = (4.0, 8.0)
CHANCE_MULTIPLE = 3.0  # a mode below 3x chance accuracy is broken, not unlucky


def corpus_spec(seed: int, sample_rate_hz: int = 12000) -> corpus.SynthSpec:
    return corpus.SynthSpec(seed=seed, sample_rate_hz=sample_rate_hz, **CORPUS)


def wav_seconds(path) -> float:
    """Duration from the WAV header, read with the standard library."""
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes() / fh.getframerate()


def fresh_dir(workdir, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=workdir)


@dataclass
class Work:
    """What one measured phase did."""

    seconds: float  # wall time of the measured phase
    audio_s: float  # seconds of audio it processed
    passes: int
    outputs: dict = field(default_factory=dict)


@dataclass
class Checked:
    """Output check of one measured phase."""

    attempted: int
    failed: int
    problems: list
    named: dict  # metric -> (value, unit)
    notes: dict = field(default_factory=dict)


def _passes(run_pass, seconds: float, passes: int | None, clock):
    """Run whole passes until `seconds` have elapsed, or exactly `passes`.

    Returns (passes run, elapsed seconds).
    """
    done = 0
    start = clock()
    while True:
        run_pass()
        done += 1
        elapsed = clock() - start
        if (passes is not None and done >= passes) or (passes is None and elapsed >= seconds):
            return done, elapsed


def _pct(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


class Protocol:
    """The paper's experiment: train, evaluate three modes, distort, report."""

    name = "protocol"
    setup_repeats = 3
    expected = (
        "corpus.generate_synthetic", "audio.load_wav", "features.mfcc",
        "pipeline.train_models", "gmm.em_fit", "gmm.score_utterance",
        "cascade.likelihood_vector", "dnn.train", "pipeline.evaluate_models",
        "gmm.gmm_identify", "cascade.classify", "cascade.classify_dnn_only",
        "dnn.forward", "audio.mix_interference", "corpus.interference_clip",
        "pipeline.evaluation_report",
    )

    def setup(self, seed: int, workdir) -> dict:
        manifest = corpus.generate_synthetic(corpus_spec(seed), fresh_dir(workdir, "corpus-"))
        seconds = {e.path: wav_seconds(e.path) for e in manifest.entries}
        train = sum(seconds[e.path] for e in manifest.split_entries("train"))
        test = sum(seconds[e.path] for e in manifest.split_entries("test"))
        return {"manifest": manifest, "cfg": pipeline.PipelineConfig(seed=seed),
                "audio_s": train + 2.0 * test}

    def work(self, state: dict, seconds: float, passes: int | None = None,
             clock=time.perf_counter) -> Work:
        manifest, cfg = state["manifest"], state["cfg"]
        t0 = clock()
        models = pipeline.train_models(manifest, cfg)
        t1 = clock()
        records = pipeline.evaluate_models(manifest, models, cfg)
        distorted = pipeline.evaluate_models(manifest, models, cfg, modes=("cascade",),
                                             distort=True)
        report = pipeline.evaluation_report(records + distorted, cfg)
        t2 = clock()
        return Work(seconds=t2 - t0, audio_s=state["audio_s"], passes=1, outputs={
            "train_s": t1 - t0, "evaluate_s": t2 - t1, "records": records,
            "distorted": distorted, "report": report, "models": models})

    def check(self, state: dict, work: Work) -> Checked:
        manifest = state["manifest"]
        roster = set(manifest.speaker_roster)
        tests = manifest.split_entries("test")
        out = work.outputs
        records = out["records"] + out["distorted"]
        expected = {(e.path, mode, "normal") for e in tests for mode in pipeline.MODES}
        expected |= {(e.path, "cascade", "distorted") for e in tests}
        seen = {(r.utterance_id, r.classifier_mode, r.condition) for r in records
                if r.predicted_speaker in roster}
        problems = [f"no valid decision for {key}" for key in sorted(expected - seen)]

        acc = {}
        for mode, cond in [(m, "normal") for m in pipeline.MODES] + [("cascade", "distorted")]:
            recs = [r for r in records if r.classifier_mode == mode and r.condition == cond]
            acc[(mode, cond)] = 100.0 * sum(r.predicted_speaker == r.true_speaker
                                            for r in recs) / max(len(recs), 1)
        floor = CHANCE_MULTIPLE * 100.0 / len(roster)
        for key, value in acc.items():
            if value < floor:
                problems.append(f"{key} accuracy {value:.2f}% below {floor:.1f}%")
        missing_modes = set(pipeline.MODES) - set(out["report"].get("modes", {}))
        if missing_modes:
            problems.append(f"report lacks modes {sorted(missing_modes)}")

        gmm_acc, dnn_acc = acc[("gmm", "normal")], acc[("dnn", "normal")]
        cas, dist = acc[("cascade", "normal")], acc[("cascade", "distorted")]
        return Checked(
            attempted=len(expected) + len(acc) + 1, failed=len(problems), problems=problems,
            named={
                "train_s": (out["train_s"], "s"),
                "evaluate_s": (out["evaluate_s"], "s"),
                "acc_gmm": (gmm_acc, "%"),
                "acc_dnn": (dnn_acc, "%"),
                "acc_cascade": (cas, "%"),
                "acc_cascade_distorted": (dist, "%"),
            },
            # acceptance 07/08 relations; pinned for seed 7 on the full-size
            # corpus only, so they are reported, not counted as failures
            notes={"cascade_ge_gmm": cas >= gmm_acc, "cascade_ge_dnn": cas >= dnn_acc,
                   "degradation_in_0_15": 0.0 < cas - dist < 15.0})


class IdentifyLong:
    """Serve one long utterance at a time, as ``emosid identify`` does."""

    name = "identify_long"
    setup_repeats = 1  # set-up trains the models; too costly to repeat
    expected = (
        "corpus.generate_synthetic", "pipeline.train_models", "containers.save_tag_store",
        "containers.load_tag_store", "containers.load_dnn", "audio.load_wav",
        "pipeline.extract_features", "features.mfcc", "cascade.classify",
        "gmm.gmm_identify", "gmm.score_utterance", "dnn.forward",
    )

    def setup(self, seed: int, workdir) -> dict:
        spec = corpus_spec(seed)
        manifest = corpus.generate_synthetic(spec, fresh_dir(workdir, "corpus-"))
        cfg = pipeline.PipelineConfig(seed=seed)
        models = pipeline.train_models(manifest, cfg)

        model_dir = Path(fresh_dir(workdir, "models-"))
        containers.write_file(model_dir / "tags.sidtags",
                              containers.save_tag_store(models.tag_store))
        containers.write_file(model_dir / "cascade.siddnn",
                              containers.save_dnn(models.cascade_dnn))
        store = containers.load_tag_store(containers.read_file(model_dir / "tags.sidtags"))
        net = containers.load_dnn(containers.read_file(model_dir / "cascade.siddnn"))

        # one long test-sentence request per (speaker, emotion); the sentence
        # rotates through the test split, the voice is the corpus voice
        long_spec = corpus.SynthSpec(seed=seed, sample_rate_hz=spec.sample_rate_hz,
                                     duration_s=LONG_REQUEST_S, **CORPUS)
        test_ids = range(spec.sentences_per_split, 2 * spec.sentences_per_split)
        request_dir = Path(fresh_dir(workdir, "requests-"))
        requests = []
        for si, speaker in enumerate(manifest.speaker_roster):
            for ei, emotion in enumerate(manifest.emotion_roster):
                sentence = test_ids[(si + ei) % len(test_ids)]
                clip = corpus.synthesize_utterance(long_spec, si, emotion, sentence, 0)
                path = request_dir / f"{speaker}_{emotion}_s{sentence}.wav"
                audio.save_wav(path, clip)
                requests.append((str(path), speaker, wav_seconds(path)))
        return {"store": store, "net": net, "cfg": cfg, "requests": requests,
                "pass_audio_s": sum(r[2] for r in requests)}

    def work(self, state: dict, seconds: float, passes: int | None = None,
             clock=time.perf_counter) -> Work:
        store, net, cfg = state["store"], state["net"], state["cfg"]
        plan = cfg.segment_plan()

        results = []

        def one_pass():
            for path, speaker, _ in state["requests"]:
                t0 = clock()
                try:
                    clip = audio.load_wav(path)
                    fm = pipeline.extract_features(clip, cfg)
                    decision = cascade.classify(store, net, fm, plan, cfg.aggregation)
                    gmm_speaker, _ = gmm.gmm_identify(store, fm)
                except Exception:  # a failed request is counted, the loop goes on
                    results.append({"speaker": speaker, "error": traceback.format_exc(limit=-2)})
                    continue
                results.append({"speaker": speaker, "ms": 1e3 * (clock() - t0),
                                "decision": decision.speaker_id,
                                "posterior": decision.posterior, "gmm": gmm_speaker})

        done, elapsed = _passes(one_pass, seconds, passes, clock)
        return Work(seconds=elapsed, audio_s=done * state["pass_audio_s"], passes=done,
                    outputs={"requests": results})

    def check(self, state: dict, work: Work) -> Checked:
        roster = state["store"].speaker_roster
        problems, latencies, correct = [], [], 0
        for k, r in enumerate(work.outputs["requests"]):
            if "error" in r:
                problems.append(f"request {k}: {r['error']}")
                continue
            p = np.asarray(r["posterior"])
            if r["decision"] not in roster or r["gmm"] not in roster:
                problems.append(f"request {k}: decision outside the roster")
            elif p.shape != (len(roster),) or not np.all(np.isfinite(p)) \
                    or abs(float(p.sum()) - 1.0) > 1e-9:
                problems.append(f"request {k}: posterior does not sum to 1")
            else:
                latencies.append(r["ms"])
                correct += r["decision"] == r["speaker"]
        n = len(work.outputs["requests"])
        named = {"identify_requests": (n, "count")}
        if latencies:
            named.update({"identify_p50_ms": (_pct(latencies, 50), "ms"),
                          # a 20 s run makes at least two passes of 60
                          # requests, so at least 12 samples lie beyond p90
                          "identify_p90_ms": (_pct(latencies, 90), "ms"),
                          "identify_acc": (100.0 * correct / n, "%")})
        return Checked(attempted=n, failed=len(problems), problems=problems, named=named)


class Extract:
    """Front end only: every 16 kHz file to a .feat container, as ``emosid extract``."""

    name = "extract"
    setup_repeats = 3
    expected = (
        "corpus.generate_synthetic", "pipeline.build_bank", "pipeline.load_entry_features",
        "audio.load_wav", "audio.resample", "features.mfcc",
        "containers.save_features", "containers.write_file",
    )

    def setup(self, seed: int, workdir) -> dict:
        manifest = corpus.generate_synthetic(corpus_spec(seed, 16000),
                                             fresh_dir(workdir, "corpus-"))
        return {"manifest": manifest, "cfg": pipeline.PipelineConfig(seed=seed),
                "out": Path(fresh_dir(workdir, "feats-")),
                "pass_audio_s": sum(wav_seconds(e.path) for e in manifest.entries)}

    def work(self, state: dict, seconds: float, passes: int | None = None,
             clock=time.perf_counter) -> Work:
        cfg, out = state["cfg"], state["out"]
        last = {}  # the last pass only, so memory does not grow with passes
        totals = {"files": 0, "errors": 0, "frames": 0}

        def one_pass():
            bank = pipeline.build_bank(cfg)
            last.clear()
            for e in state["manifest"].entries:
                dest = out / (Path(e.path).stem + ".feat")
                totals["files"] += 1
                try:
                    fm = pipeline.load_entry_features(e, cfg, bank)
                    containers.write_file(dest, containers.save_features(fm))
                except Exception:  # a failed file is counted, the loop goes on
                    last[dest] = traceback.format_exc(limit=-2)
                    totals["errors"] += 1
                    continue
                last[dest] = fm
                totals["frames"] += fm.num_frames

        done, elapsed = _passes(one_pass, seconds, passes, clock)
        return Work(seconds=elapsed, audio_s=done * state["pass_audio_s"], passes=done,
                    outputs={"last": last, **totals})

    def check(self, state: dict, work: Work) -> Checked:
        out = work.outputs
        problems = [f"{dest}: {fm}" for dest, fm in out["last"].items() if isinstance(fm, str)]
        mismatched = 0
        for dest, fm in out["last"].items():
            if isinstance(fm, str):
                continue
            back = containers.load_features(containers.read_file(dest))
            if not (fm.num_frames > 0 and back.data.dtype == fm.data.dtype
                    and back.data.shape == fm.data.shape
                    and back.data.tobytes() == fm.data.tobytes() and back.meta == fm.meta):
                mismatched += 1
                problems.append(f"{dest}: reload is not bit-exact")
        return Checked(
            attempted=out["files"], failed=out["errors"] + mismatched, problems=problems,
            named={"extract_frames_per_s": (out["frames"] / work.seconds, "frames/s"),
                   "extract_files": (out["files"], "count")})


WORKLOADS = {w.name: w for w in (Protocol(), IdentifyLong(), Extract())}

