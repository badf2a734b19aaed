"""Acceptance suite: ten gate criteria for the whole package.

The heavyweight criteria (6-8) share two trained pipelines over the
default-size corpus (10 speakers x 6 emotions x 8 sentences x 3
repetitions): one at high speaker separation, one at the medium
separation setting where the cascade's contribution is visible. Both use
the pinned evaluation seed; every number asserted here was reproduced
from scratch before pinning.
"""

import time

import numpy as np
import pytest

from emosid.audio import AudioClip, mix_interference
from emosid.cli import main
from emosid.corpus import SynthSpec, generate_synthetic
from emosid.dnn import forward, gradients, init_model
from emosid.evaluation import PerformanceTable, compare_two, sid_performance, students_t
from emosid.features import build_filterbank, hz_to_mel, mfcc
from emosid.gmm import em_fit
from emosid.pipeline import PipelineConfig, evaluate_models, train_models

from test_features import mfcc_oracle

EVAL_SEED = 7
MEDIUM_SEPARATION = 0.35


@pytest.fixture(scope="module")
def high_sep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_high")
    manifest = generate_synthetic(SynthSpec(seed=EVAL_SEED, separation=1.0), str(out))
    cfg = PipelineConfig(seed=EVAL_SEED)
    models = train_models(manifest, cfg)
    return manifest, cfg, models


@pytest.fixture(scope="module")
def medium_sep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_medium")
    manifest = generate_synthetic(
        SynthSpec(seed=EVAL_SEED, separation=MEDIUM_SEPARATION), str(out))
    cfg = PipelineConfig(seed=EVAL_SEED)
    start = time.monotonic()
    models = train_models(manifest, cfg)
    records = evaluate_models(manifest, models, cfg)
    elapsed = time.monotonic() - start
    return manifest, cfg, models, records, elapsed


def _avg(records, mode, condition="normal"):
    return sid_performance(records).averages[(mode, condition)]


def test_01_mfcc_oracle_equivalence(rng):
    """Full MFCC pipeline vs direct-DFT + explicit triangles + textbook DCT,
    1e-6 relative on 100 random frames, under 10 s."""
    bank = build_filterbank(26, 12000, 512, 0.0, 6000.0)
    frames = rng.standard_normal((100, 300)) * 0.2
    start = time.monotonic()
    fast = mfcc(frames, bank, 13, 1e-10)
    for i in range(100):
        slow = mfcc_oracle(frames[i], bank, 13, 1e-10)
        np.testing.assert_allclose(fast.data[i], slow, rtol=1e-6, atol=1e-9)
    assert time.monotonic() - start < 10.0


def test_02_mel_scale_anchors():
    assert hz_to_mel(0.0) == 0.0
    assert abs(hz_to_mel(1000.0) - 1000.0) < 0.1


def test_03_em_monotonicity_50_datasets():
    """Average log-likelihood never decreases by more than 1e-8 per EM
    iteration (T=500, D=13, M=8), floor-binding iterations exempt."""
    for seed in range(50):
        r = np.random.default_rng(seed)
        data = r.standard_normal((500, 13)) + r.integers(0, 3, (500, 1))
        tag = em_fit(data, 8, seed=seed)
        hist = tag.train_meta["log_likelihood_history"]
        exempt = set(tag.train_meta["floor_iterations"])
        drops = [hist[i] - hist[i - 1] for i in range(1, len(hist))
                 if (i - 1) not in exempt]
        assert min(drops, default=0.0) >= -1e-8, f"seed {seed}"


def test_04_gmm_recovery_two_components():
    rng = np.random.default_rng(99)
    data = np.concatenate([rng.normal(-10, 1, (500, 1)), rng.normal(10, 1, (500, 1))])
    tag = em_fit(data, 2, seed=1)
    means = np.sort(tag.means[:, 0])
    assert abs(means[0] + 10) < 0.2 and abs(means[1] - 10) < 0.2
    np.testing.assert_allclose(np.sort(tag.weights), [0.5, 0.5], atol=0.05)


def test_05_dnn_gradient_check():
    """Analytic vs central finite differences, max relative error < 1e-4
    (1e-6 absolute floor), kink-adjacent points excluded, under 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(5)
    model = init_model(5, (7, 6), 3, seed=11)
    x = rng.standard_normal((4, 5))
    labels = np.array([0, 2, 1, 2])
    _, cache = forward(model, x)
    assert all(np.min(np.abs(z)) > 1e-6 for z in cache["pre_activations"][:-1])

    _, grad_w, grad_b = gradients(model, x, labels)
    eps = 1e-5
    worst = 0.0
    for k in range(len(model.weights)):
        for arr, grad in ((model.weights[k], grad_w[k]), (model.biases[k], grad_b[k])):
            flat, gflat = arr.ravel(), grad.ravel()
            for j in rng.choice(len(flat), size=min(40, len(flat)), replace=False):
                orig = flat[j]
                flat[j] = orig + eps
                lp = gradients(model, x, labels)[0]
                flat[j] = orig - eps
                lm = gradients(model, x, labels)[0]
                flat[j] = orig
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(gflat[j] - fd) / max(abs(fd), 1e-6))
    assert worst < 1e-4, f"max relative gradient error {worst}"
    assert time.monotonic() - start < 30.0


def test_06_train_determinism(medium_sep_run, tmp_path, capsys):
    """`train` twice with the same seed on the default corpus produces
    byte-identical TagStore and DnnModel files."""
    manifest, _, _, _, _ = medium_sep_run
    manifest_path = str(next(iter({e.path for e in manifest.entries})))
    manifest_path = manifest_path.rsplit("/", 1)[0] + "/manifest.jsonl"
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["train", "--manifest", manifest_path, "--out", str(out),
                     "--seed", str(EVAL_SEED)])
        capsys.readouterr()
        assert code == 0
    for name in ("tags.sidtags", "cascade.siddnn", "dnn_only.siddnn"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_07_end_to_end_identification(high_sep_run, medium_sep_run):
    """High separation: GMM-alone >= 99%. Medium separation: cascade >=
    GMM-alone and >= DNN-alone on the same split. Full run < 15 min."""
    manifest, cfg, models = high_sep_run
    gmm_records = evaluate_models(manifest, models, cfg, modes=("gmm",))
    high_gmm = _avg(gmm_records, "gmm")
    assert high_gmm >= 99.0, f"high-separation GMM accuracy {high_gmm}"

    _, _, _, records, elapsed = medium_sep_run
    gmm = _avg(records, "gmm")
    dnn = _avg(records, "dnn")
    cascade = _avg(records, "cascade")
    assert cascade >= gmm, f"cascade {cascade} < gmm {gmm}"
    assert cascade >= dnn, f"cascade {cascade} < dnn {dnn}"
    assert elapsed < 15 * 60, f"medium-separation run took {elapsed:.0f}s"


def test_08_noise_stress_degradation(medium_sep_run):
    """Interference at power ratio 2:1 degrades cascade accuracy by a
    strictly positive amount below 15 percentage points."""
    manifest, cfg, models, records, _ = medium_sep_run
    normal = _avg(records, "cascade")
    distorted_records = evaluate_models(manifest, models, cfg,
                                        modes=("cascade",), distort=True)
    distorted = _avg(distorted_records, "cascade", "distorted")
    degradation = normal - distorted
    assert 0.0 < degradation < 15.0, (
        f"cascade degradation {degradation:.2f} points "
        f"(normal {normal:.2f}, distorted {distorted:.2f})")


def test_09_statistics_fixtures():
    r = students_t([80, 82, 84], [70, 72, 74])
    assert abs(r.t_value - 5.0) < 1e-9

    # Eq-13-style arithmetic is exact
    from emosid.evaluation import TrialRecord
    recs = [TrialRecord(f"u{k}", "a", "a" if k < 46 else "b", "neutral")
            for k in range(50)]
    assert sid_performance(recs).cells[("neutral", "cascade", "normal")]["rate"] == 92.0

    def fixture(rate, mode):
        return PerformanceTable(
            cells={("all", mode, "normal"): {"rate": rate, "correct": 0, "trials": 0}},
            averages={(mode, "normal"): rate})

    vs_gmm = compare_two(fixture(81.7, "cascade"), fixture(69.3, "gmm"))
    assert abs(vs_gmm["average"]["relative_improvement_pct"] - 17.9) < 0.05
    vs_dnn = compare_two(fixture(81.7, "cascade"), fixture(76.2, "dnn"))
    assert abs(vs_dnn["average"]["relative_improvement_pct"] - 7.2) < 0.05


def test_10_mix_ratio_calibration():
    """mix_interference at power_ratio 2 measures 3.01 dB +/- 0.1 dB over
    20 random signal/noise pairs."""
    for trial in range(20):
        r = np.random.default_rng(1000 + trial)
        sig = AudioClip(r.standard_normal(4000) * 0.2, 8000)
        noise = AudioClip(r.uniform(-0.4, 0.4, 4000), 8000)
        res = mix_interference(sig, noise, 2.0)
        p_sig = np.mean(sig.samples ** 2)
        p_noise = np.mean((res.noise_gain * noise.samples) ** 2)
        snr_db = 10 * np.log10(p_sig / p_noise)
        assert abs(snr_db - 3.0103) < 0.1, f"trial {trial}: {snr_db:.4f} dB"
