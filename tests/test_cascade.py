"""Segmentation, likelihood vectors, and cascade classification."""

import numpy as np
import pytest

from emosid.cascade import (
    SegmentPlan,
    classify,
    likelihood_vectors,
    pooled_stats,
    segment,
)
from emosid.dnn import init_model, train
from emosid.errors import ConfigError, DimensionError, EmptyUtteranceError
from emosid.features import FeatureMatrix
from emosid.gmm import GmmTag, em_fit, gmm_identify, score_utterance

from conftest import stack_tags, tag_at

PLAN = SegmentPlan(100, 0.5)  # PipelineConfig's default segmentation


def fm(n, d=4, rng=None):
    data = (rng.standard_normal((n, d)) if rng is not None
            else np.arange(n * d, dtype=float).reshape(n, d))
    return FeatureMatrix(data=data)


def toy_store(rng, speakers=("a", "b", "c"), emotions=("neutral", "happy")):
    tags = []
    for spk in speakers:
        mu = rng.standard_normal((2, 4)) * 3
        for emo in emotions:
            tags.append(GmmTag(
                weights=np.array([0.5, 0.5]),
                means=mu + rng.standard_normal((2, 4)) * 0.1,
                variances=rng.uniform(0.5, 2.0, (2, 4))))
    return stack_tags(tags, speakers, emotions)


class TestSegmentPlan:
    def test_hop_default(self):
        assert SegmentPlan(100, 0.5).hop == 50

    def test_hop_never_zero(self):
        assert SegmentPlan(1, 0.9).hop == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            SegmentPlan(0, 0.5)
        with pytest.raises(ConfigError):
            SegmentPlan(100, 1.0)


class TestSegment:
    def test_exactly_one_segment(self):
        assert segment(fm(100), SegmentPlan(100, 0.5)) == [(0, 100)]

    def test_150_frames_two_segments(self):
        assert segment(fm(150), SegmentPlan(100, 0.5)) == [(0, 100), (50, 150)]

    def test_short_utterance_single_segment(self):
        assert segment(fm(30), SegmentPlan(100, 0.5)) == [(0, 30)]

    def test_remainder_at_least_half_kept(self):
        # 160 frames: full at (0,100) and (50,150); from 100, 60 >= 50 remain
        assert segment(fm(160), SegmentPlan(100, 0.5)) == [(0, 100), (50, 150), (100, 160)]

    def test_short_remainder_dropped(self):
        # 130 frames: from 100 only 30 < 50 remain, dropped
        assert segment(fm(130), SegmentPlan(100, 0.5)) == [(0, 100), (50, 130)]

    def test_empty_utterance_rejected(self):
        with pytest.raises(DimensionError):
            segment(fm(0), PLAN)


class TestLikelihoodVector:
    def test_length_and_roster_order(self, rng):
        store = toy_store(rng)
        seg = fm(20, rng=rng)
        lv = likelihood_vectors(store, seg, [(0, 20)])
        assert lv.shape == (1, 6)
        expected = [score_utterance(tag_at(store, k), seg) for k in range(6)]
        np.testing.assert_allclose(lv[0], expected, rtol=0, atol=0)

    def test_identical_tags_identical_entries(self, rng):
        tag = GmmTag(weights=np.array([1.0]), means=np.zeros((1, 4)),
                     variances=np.ones((1, 4)))
        store = stack_tags([tag, tag], ["a", "b"], ["n"])
        lv = likelihood_vectors(store, fm(10, rng=rng), [(0, 10)])
        assert lv[0, 0] == lv[0, 1]

    def test_dimension_mismatch(self, rng):
        store = toy_store(rng)
        with pytest.raises(DimensionError):
            likelihood_vectors(store, fm(10, d=7, rng=rng), [(0, 10)])

    def test_all_finite(self, rng):
        store = toy_store(rng)
        lv = likelihood_vectors(store, fm(10, rng=rng), [(0, 10)])
        assert np.all(np.isfinite(lv))

    def test_span_outside_utterance(self, rng):
        store = toy_store(rng)
        for span in [(0, 11), (5, 5), (-1, 4)]:
            with pytest.raises(DimensionError):
                likelihood_vectors(store, fm(10, rng=rng), [span])


def em_store(rng, num_speakers=3, num_emotions=2, duplicate=False):
    """Tags trained by EM (M=8, D=13); with duplicate, the first two
    speakers share identical tags and each tag repeats one component."""
    tags = []
    speakers = [f"s{k}" for k in range(num_speakers)]
    emotions = [f"e{k}" for k in range(num_emotions)]
    for si in range(num_speakers):
        for ei in range(num_emotions):
            data = rng.standard_normal((400, 13)) * rng.uniform(0.5, 2.0, 13) \
                + rng.standard_normal(13) * 2.0
            tag = em_fit(data, 8, max_iters=20, seed=10 * si + ei)
            if duplicate:
                tag.means[1], tag.variances[1] = tag.means[0], tag.variances[0]
                tag.weights[1] = tag.weights[0]
                if si == 1:
                    tag = tags[ei]
            tags.append(tag)
    return stack_tags(tags, speakers, emotions)


class TestScoreMatrix:
    """likelihood_vectors and gmm_identify against the per-tag, per-span
    score_utterance loop they replaced."""

    LENGTHS = (1, 49, 99, 100, 149, 150, 151, 799)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_matches_per_span_loop(self, rng, duplicate):
        store = em_store(rng, duplicate=duplicate)
        for n in self.LENGTHS:
            features = FeatureMatrix(rng.standard_normal((n, 13)) * 1.5)
            spans = segment(features, PLAN)
            lv = likelihood_vectors(store, features, spans)
            expected = [[score_utterance(tag_at(store, k), features.data[a:b])
                         for k in range(len(store))] for a, b in spans]
            np.testing.assert_allclose(lv, expected, rtol=0, atol=1e-9)

            best, table = gmm_identify(store, features)
            e = len(store.emotion_roster)
            whole = {spk: max(score_utterance(tag_at(store, si * e + ei), features)
                              for ei in range(e))
                     for si, spk in enumerate(store.speaker_roster)}
            np.testing.assert_allclose([table["scores"][s] for s in store.speaker_roster],
                                       [whole[s] for s in store.speaker_roster],
                                       rtol=0, atol=1e-9)
            assert best == max(store.speaker_roster, key=lambda s: whole[s])
            if duplicate:
                assert lv[0, 0] == lv[0, len(store.emotion_roster)]
                assert table["scores"]["s0"] == table["scores"]["s1"]
                assert table["tie"] == (best == "s0")

    def test_dimension_mismatch(self, rng):
        store = em_store(rng, num_speakers=2, num_emotions=1)
        features = FeatureMatrix(rng.standard_normal((120, 12)))
        with pytest.raises(DimensionError):
            likelihood_vectors(store, features, [(0, 100)])
        with pytest.raises(DimensionError):
            gmm_identify(store, features)

    def test_empty_utterance(self, rng):
        store = em_store(rng, num_speakers=2, num_emotions=1)
        features = FeatureMatrix(np.zeros((0, 13)))
        with pytest.raises(EmptyUtteranceError):
            likelihood_vectors(store, features, [])
        with pytest.raises(EmptyUtteranceError):
            gmm_identify(store, features)


def test_pooled_mfcc_stats(rng):
    store = toy_store(rng)
    seg = fm(50, rng=rng)
    stats = pooled_stats(store, seg, [(0, 50), (10, 30)])
    assert stats.shape == (2, 8)
    np.testing.assert_allclose(stats[0, :4], seg.data.mean(axis=0))
    np.testing.assert_allclose(stats[0, 4:], seg.data.std(axis=0))
    np.testing.assert_allclose(stats[1, 4:], seg.data[10:30].std(axis=0))
    const = FeatureMatrix(data=np.tile([1.0, 2.0, 3.0, 4.0], (10, 1)))
    np.testing.assert_allclose(pooled_stats(store, const, [(0, 10)])[0, 4:], 0.0)
    for span in [(0, 11), (5, 5)]:
        with pytest.raises(DimensionError):
            pooled_stats(store, const, [span])


class TestClassify:
    @pytest.fixture
    def setup(self, rng):
        store = toy_store(rng)
        model = init_model(6, (16,), 3, seed=4)
        return store, model

    def test_single_segment_posterior_passthrough(self, setup, rng):
        store, model = setup
        features = fm(80, rng=rng)  # < 100 frames: one segment
        dec = classify(store, model, features, PLAN, "mean")
        assert len(dec.per_segment) == 1
        np.testing.assert_allclose(dec.posterior, dec.per_segment[0]["posterior"],
                                   atol=1e-15)

    def test_posterior_is_distribution(self, setup, rng):
        store, model = setup
        dec = classify(store, model, fm(250, rng=rng), PLAN, "mean")
        assert abs(dec.posterior.sum() - 1.0) < 1e-9
        assert np.all(dec.posterior >= 0) and np.all(dec.posterior <= 1)
        assert dec.speaker_id == store.speaker_roster[int(np.argmax(dec.posterior))]

    def test_mean_of_identical_posteriors(self, rng):
        # features built so every segment is identical
        store = toy_store(rng)
        model = init_model(6, (16,), 3, seed=4)
        block = rng.standard_normal((50, 4))
        features = FeatureMatrix(data=np.tile(block, (4, 1)))
        dec = classify(store, model, features, PLAN, "mean")
        for rec in dec.per_segment:
            np.testing.assert_allclose(rec["posterior"], dec.per_segment[0]["posterior"],
                                       atol=1e-12)

    def test_constant_shift_invariance_with_standardization(self, rng):
        """Adding c to every likelihood-vector entry must not move posteriors
        when standardization is on: verified through the DNN directly."""
        std = (np.zeros(6), np.ones(6))
        model = init_model(6, (16,), 3, seed=4, input_standardization=std)
        from emosid.dnn import forward
        v = rng.standard_normal(6)
        # standardization with stats (mean over train data); emulate the real
        # setup where the shift is absorbed by the stored mean
        shifted_std = (np.full(6, 10.0), np.ones(6))
        model_shifted = init_model(6, (16,), 3, seed=4,
                                   input_standardization=shifted_std)
        a, _ = forward(model, v)
        b, _ = forward(model_shifted, v + 10.0)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_size_mismatch_errors(self, setup, rng):
        store, _ = setup
        wrong_in = init_model(5, (8,), 3, seed=0)
        with pytest.raises(ConfigError):
            classify(store, wrong_in, fm(120, rng=rng), PLAN, "mean")
        wrong_out = init_model(6, (8,), 4, seed=0)
        with pytest.raises(ConfigError):
            classify(store, wrong_out, fm(120, rng=rng), PLAN, "mean")

    @pytest.mark.parametrize("aggregation", ["geometric", "median"])
    def test_unknown_aggregation_refused(self, setup, rng, aggregation):
        store, model = setup
        with pytest.raises(ConfigError):
            classify(store, model, fm(250, rng=rng), PLAN, aggregation)


class TestClassifyDnnOnly:
    """The DNN-alone ablation: classify with pooled_stats as the inputs."""

    def test_single_segment(self, rng):
        store = toy_store(rng)
        model = init_model(8, (16,), 3, seed=1)
        dec = classify(store, model, fm(60, rng=rng), PLAN, "mean", inputs=pooled_stats)
        assert len(dec.per_segment) == 1
        assert dec.speaker_id in ("a", "b", "c")

    def test_constant_features_deterministic(self, rng):
        store = toy_store(rng)
        model = init_model(8, (16,), 3, seed=1)
        const = FeatureMatrix(data=np.tile([0.1, 0.2, 0.3, 0.4], (120, 1)))
        a = classify(store, model, const, PLAN, "mean", inputs=pooled_stats)
        b = classify(store, model, const, PLAN, "mean", inputs=pooled_stats)
        assert a.speaker_id == b.speaker_id
        np.testing.assert_array_equal(a.posterior, b.posterior)

    def test_input_size_checked(self, rng):
        store = toy_store(rng)
        model = init_model(5, (16,), 3, seed=1)
        with pytest.raises(ConfigError):
            classify(store, model, fm(60, rng=rng), PLAN, "mean", inputs=pooled_stats)
        # a cascade-sized network (one input per tag) is refused as well
        with pytest.raises(ConfigError):
            classify(store, init_model(6, (16,), 3, seed=1), fm(60, rng=rng), PLAN, "mean",
                     inputs=pooled_stats)


def test_trained_cascade_beats_chance(rng):
    """Small end-to-end sanity run: 3 synthetic Gaussian 'speakers'."""
    store = toy_store(rng)
    plan = SegmentPlan(20, 0.5)
    # training vectors: frames drawn from each speaker's own neutral tag
    xs, ys = [], []
    for k, spk in enumerate(store.speaker_roster):
        tag = tag_at(store, 2 * k)  # the speaker's neutral tag
        for _ in range(30):
            comp = rng.integers(0, 2, 20)
            frames = tag.means[comp] + rng.standard_normal((20, 4)) * np.sqrt(
                tag.variances[comp])
            xs.append(likelihood_vectors(store, FeatureMatrix(frames), [(0, 20)])[0])
            ys.append(k)
    xs = np.stack(xs)
    std = (xs.mean(axis=0), np.maximum(xs.std(axis=0), 1e-12))
    model = train(xs, np.array(ys), (32,), 3, learning_rate=0.3, epochs=150, batch_size=32,
                  lr_decay=0.98, seed=2, input_standardization=std)
    correct = 0
    trials = 30
    for t in range(trials):
        k = t % 3
        tag = tag_at(store, 2 * k)
        comp = rng.integers(0, 2, 20)
        frames = tag.means[comp] + rng.standard_normal((20, 4)) * np.sqrt(
            tag.variances[comp])
        dec = classify(store, model, FeatureMatrix(frames), plan, "mean")
        correct += dec.speaker_id == store.speaker_roster[k]
    assert correct / trials > 0.8
