"""Diagonal GMM density evaluation, EM training, and speaker selection."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from emosid import gmm
from emosid.errors import DimensionError, EmptyUtteranceError, InsufficientDataError, \
    ValidationError
from emosid.features import FeatureMatrix
from emosid.gmm import (
    GmmTag,
    TagStore,
    _e_step,
    _logsumexp_planes,
    em_fit,
    frame_scores,
    gmm_identify,
    score_utterance,
)

from conftest import reference_logsumexp, reference_score, stack_tags, tag_at


def make_tag(weights, means, variances):
    return GmmTag(weights=np.asarray(weights, float),
                  means=np.atleast_2d(np.asarray(means, float)),
                  variances=np.atleast_2d(np.asarray(variances, float)))


def direct_mixture_density(tag, x):
    """Linear-domain oracle: sum of weighted Gaussian densities."""
    total = 0.0
    for w, mu, var in zip(tag.weights, tag.means, tag.variances):
        norm = np.prod(1.0 / np.sqrt(2 * np.pi * var))
        total += w * norm * np.exp(-0.5 * np.sum((x - mu) ** 2 / var))
    return np.log(total)


def one_tag_store(tag):
    return stack_tags([tag], ["s"], ["neutral"])


class TestLogSumExp:
    """The plane log-sum-exp against scipy.special.logsumexp along the last
    axis, byte for byte, with that axis as the planes."""

    def check(self, rows):
        planes = np.moveaxis(rows, -1, 0).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp_planes(planes)
        assert got.tobytes() == logsumexp(rows, axis=-1).tobytes()
        assert got.shape == planes[0].shape and np.shares_memory(got, planes[0])

    def test_random_rows(self, rng):
        self.check(rng.standard_normal((200, 8)) * 30)
        self.check(rng.standard_normal((5, 7, 16)))
        for m in (1, 2, 3, 9, 16, 17, 130, 300):
            self.check(rng.standard_normal((20, m)) * 5)

    def test_tied_rows(self, rng):
        rows = rng.standard_normal((50, 8))
        rows[:, 3] = rows.max(axis=1)
        rows[:10] = 2.5
        self.check(rows)

    def test_rows_with_minus_inf(self, rng):
        rows = rng.standard_normal((20, 8))
        rows[::2, :5] = -np.inf
        rows[1] = -np.inf
        self.check(rows)

    def test_large_magnitude(self, rng):
        self.check(rng.standard_normal((100, 8)) * 50 + 1e4)
        self.check(rng.standard_normal((100, 8)) * 50 - 1e4)

    def test_non_finite_rows(self, rng):
        rows = rng.standard_normal((6, 8))
        rows[0, 2] = np.nan
        rows[1, 5] = np.inf
        rows[2] = -np.inf
        rows[3, :4] = np.inf
        rows[4] = np.nan
        rows[5, 0], rows[5, 1] = np.inf, -np.inf
        self.check(rows)

    def test_subnormal_band(self, rng):
        """Shifted entries whose exp is subnormal (below about -708) or
        underflows to zero (below about -745)."""
        rows = -rng.uniform(700.0, 750.0, (40, 8))
        rows[:, 0] = 0.0
        self.check(rows)
        self.check(rows[:, :3] + 1e3)


def grid_store(rng, k, m, d, ties=True):
    """k random tags of m components in d dims, in a roster of k speakers and
    one emotion. With ties, component 1 of every tag repeats component 0 (the
    log-sum-exp ties) and the last component of tag 0 has zero weight."""
    weights = rng.uniform(0.1, 1.0, (k, m))
    means = rng.standard_normal((k, m, d)) * 2.0
    variances = rng.uniform(0.3, 2.0, (k, m, d))
    if ties and m > 1:
        weights[:, 1], means[:, 1], variances[:, 1] = weights[:, 0], means[:, 0], variances[:, 0]
        weights[0, -1] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):  # the log of a zero weight is -inf
        return TagStore(speaker_roster=[f"s{i}" for i in range(k)], emotion_roster=["neutral"],
                        weights=weights, means=means, variances=variances,
                        train_meta=[{}] * k, front_end={})


def far_frames(rng, t, d, reach):
    """t frames whose distance from the origin grows geometrically up to
    reach: far out, the gaps between component log-densities sweep through
    the band where exp of the shifted entries is subnormal or zero."""
    return rng.standard_normal((t, d)) * np.geomspace(0.5, reach, t)[:, None]


class TestScoreKernel:
    """frame_scores' component-major kernel against the reference that
    reduces strided (T, K) slices of the (T, M*K) matrix."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 6, 60]), m=st.sampled_from([1, 2, 3, 8, 9, 16]),
           d=st.sampled_from([1, 13]), t=st.sampled_from([1, 2, 7, 257, 1001]),
           reach=st.sampled_from([1.0, 60.0]), seed=st.integers(0, 2**16))
    def test_matches_reference_bytes(self, k, m, d, t, reach, seed):
        rng = np.random.default_rng(seed)
        store = grid_store(rng, k, m, d)
        x = far_frames(rng, t, d, reach)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frame_scores(store, x)
        assert got.shape == (k, t) and got.flags.c_contiguous
        assert got.tobytes() == reference_score(store, x).tobytes()

    def test_far_frames_reach_the_subnormal_band(self, rng):
        store = grid_store(rng, 6, 8, 13)
        x = far_frames(rng, 1001, 13, 60.0)
        logb = np.stack([gmm._tag_planes(tag_at(store, j), x) for j in range(1, len(store))])
        shifted = logb - logb.max(axis=1, keepdims=True)
        assert np.any((shifted < -708.4) & (shifted > -745.2))
        assert frame_scores(store, x).tobytes() == reference_score(store, x).tobytes()

    @pytest.mark.parametrize("m, data", [(1, "blobs"), (2, "blobs"), (8, "blobs"),
                                         (9, "blobs"), (8, "three-points")])
    def test_em_fit_matches_reference(self, rng, monkeypatch, m, data):
        """EM's E-step under the plane kernel and under the reference
        log-sum-exp; on three repeated points the variance floor binds."""
        if data == "blobs":
            x = rng.standard_normal((600, 13)) + rng.integers(0, 3, (600, 1)) * 2.0
        else:
            x = np.tile(rng.standard_normal((3, 4)), (40, 1))
        new = em_fit(x, m, seed=4)
        monkeypatch.setattr(gmm, "_logsumexp_planes",
                            lambda planes: reference_logsumexp(planes, axis=0))
        old = em_fit(x, m, seed=4)
        for name in ("weights", "means", "variances"):
            assert getattr(new, name).tobytes() == getattr(old, name).tobytes()
        assert new.train_meta == old.train_meta
        if data == "three-points":
            assert new.train_meta["floor_iterations"]

    @pytest.mark.parametrize("m", [8, 9])
    def test_rows_against_the_one_tag_density(self, rng, m):
        """Row k against a store of tag k alone (K=60, T=257): the same bytes
        at 8 mixtures; at 9, the 540-column product tiles differently from
        the 9-column one and a few entries differ in the last bits."""
        store = grid_store(rng, 60, m, 13, ties=False)
        x = rng.standard_normal((257, 13)) * 2.0
        got = frame_scores(store, x)
        want = np.stack([frame_scores(one_tag_store(tag_at(store, k)), x)[0]
                         for k in range(len(store))])
        if m == 8:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m", [1, 8, 9])
    def test_em_and_score_utterance_share_the_kernel(self, rng, m):
        """EM's per-frame log-likelihood and score_utterance of a trained tag
        are the row of a store of that tag alone, and its mean, byte for
        byte."""
        x = rng.standard_normal((400, 13)) + rng.integers(0, 3, (400, 1)) * 2.0
        tag = em_fit(x[:300], m, seed=3)
        row = frame_scores(one_tag_store(tag), x[300:])[0]
        assert _e_step(tag, x[300:])[0].tobytes() == row.tobytes()
        assert score_utterance(tag, x[300:]) == row.mean()


class TestComponentDensity:
    """One component of weight 1, through one-frame score_utterance calls."""

    def test_standard_normal_at_zero(self):
        tag = make_tag([1.0], [[0.0]], [[1.0]])
        assert abs(score_utterance(tag, np.array([0.0]))
                   - (-0.5 * np.log(2 * np.pi))) < 1e-12

    def test_at_mean_quadratic_vanishes(self, rng):
        d = 5
        var = rng.uniform(0.5, 2.0, (1, d))
        mu = rng.standard_normal((1, d))
        tag = make_tag([1.0], mu, var)
        expected = -0.5 * (d * np.log(2 * np.pi) + np.sum(np.log(var)))
        assert abs(score_utterance(tag, mu[0]) - expected) < 1e-12

    def test_integrates_to_one_quadrature(self):
        # 1-D standard normal: quadrature of exp(log b) over [-8, 8]
        tag = make_tag([1.0], [[0.0]], [[1.0]])
        grid = np.linspace(-8, 8, 20001)
        vals = np.exp([score_utterance(tag, np.array([g])) for g in grid])
        integral = np.trapezoid(vals, grid)
        assert abs(integral - 1.0) < 1e-4

    def test_dimension_mismatch(self):
        tag = make_tag([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(DimensionError):
            score_utterance(tag, np.zeros(3))


class TestMixtureDensity:
    """log sum_i w_i b_i(x), through one-frame score_utterance calls."""

    def test_single_component_reduction(self, rng):
        mu, var = rng.standard_normal(3), rng.uniform(0.5, 2, 3)
        tag = make_tag([1.0], [mu], [var])
        x = rng.standard_normal(3)
        log_normal = -0.5 * (3 * np.log(2 * np.pi) + np.sum(np.log(var))
                             + np.sum((x - mu) ** 2 / var))
        assert abs(score_utterance(tag, x) - log_normal) < 1e-12

    def test_mixture_of_clones(self, rng):
        mu = rng.standard_normal(2)
        var = rng.uniform(0.5, 2, 2)
        clone = make_tag([0.5, 0.5], [mu, mu], [var, var])
        single = make_tag([1.0], [mu], [var])
        x = rng.standard_normal(2)
        assert abs(score_utterance(clone, x) - score_utterance(single, x)) < 1e-12

    def test_matches_direct_summation(self, rng):
        for _ in range(20):
            tag = make_tag(np.full(3, 1 / 3), rng.standard_normal((3, 2)),
                           rng.uniform(0.3, 2.0, (3, 2)))
            x = rng.standard_normal(2)
            fast = score_utterance(tag, x)
            slow = direct_mixture_density(tag, x)
            assert abs(fast - slow) < 1e-10 * max(abs(slow), 1.0)

    def test_component_permutation_invariance(self, rng):
        w = np.array([0.2, 0.3, 0.5])
        mu = rng.standard_normal((3, 4))
        var = rng.uniform(0.5, 2, (3, 4))
        tag = make_tag(w, mu, var)
        perm = [2, 0, 1]
        tag_p = make_tag(w[perm], mu[perm], var[perm])
        x = rng.standard_normal(4)
        assert abs(score_utterance(tag, x) - score_utterance(tag_p, x)) < 1e-12

    def test_no_underflow_far_from_means(self):
        tag = make_tag([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
        val = score_utterance(tag, np.array([1e4]))
        assert np.isfinite(val) and val < -1e7


class TestResponsibilities:
    """The posterior component memberships of EM's E-step."""

    def test_symmetric_half_half(self):
        tag = make_tag([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        _, r = _e_step(tag, np.array([[0.0]]))
        np.testing.assert_allclose(r[0], [0.5, 0.5], atol=1e-12)

    def test_single_component(self):
        tag = make_tag([1.0], [[0.0]], [[1.0]])
        np.testing.assert_allclose(_e_step(tag, np.array([[3.0]]))[1][0], [1.0])

    def test_far_point_dominated(self):
        tag = make_tag([0.5, 0.5], [[0.0], [10.0]], [[1.0], [1.0]])
        _, r = _e_step(tag, np.array([[10.0]]))
        assert r[0, 1] >= 1.0 - 1e-20

    def test_rows_sum_to_one(self, rng):
        tag = make_tag(np.full(4, 0.25), rng.standard_normal((4, 3)),
                       rng.uniform(0.5, 2, (4, 3)))
        x = rng.standard_normal((50, 3))
        frame_ll, r = _e_step(tag, x)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(r >= 0)
        np.testing.assert_array_equal(frame_ll, frame_scores(one_tag_store(tag), x)[0])


class TestEmFit:
    def test_degenerate_single_point(self):
        v = np.array([1.5, -2.0, 0.25])
        tag = em_fit(np.tile(v, (20, 1)), 1, variance_floor=1e-4)
        np.testing.assert_allclose(tag.means[0], v, atol=1e-12)
        np.testing.assert_allclose(tag.variances[0], 1e-4)
        assert tag.weights[0] == 1.0

    def test_single_component_matches_moments(self, rng):
        data = rng.standard_normal((400, 5)) * 2.0 + 1.0
        tag = em_fit(data, 1)
        np.testing.assert_allclose(tag.means[0], data.mean(axis=0), atol=1e-10)
        # the variance update uses the biased (second moment - mean^2) form
        np.testing.assert_allclose(tag.variances[0], data.var(axis=0), atol=1e-10)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(99)
        data = np.concatenate([rng.normal(-10, 1, (500, 1)),
                               rng.normal(10, 1, (500, 1))])
        tag = em_fit(data, 2, seed=1)
        means = np.sort(tag.means[:, 0])
        assert abs(means[0] + 10) < 0.2 and abs(means[1] - 10) < 0.2
        np.testing.assert_allclose(np.sort(tag.weights), [0.5, 0.5], atol=0.05)

    def test_monotone_likelihood_50_datasets(self):
        # acceptance-style check at module level: per-iteration average
        # log-likelihood never drops (floor-binding iterations exempt)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((500, 13)) + rng.integers(0, 3, (500, 1))
            tag = em_fit(data, 8, seed=seed)
            hist = tag.train_meta["log_likelihood_history"]
            exempt = set(tag.train_meta["floor_iterations"])
            for i in range(1, len(hist)):
                if (i - 1) in exempt:
                    continue
                assert hist[i] - hist[i - 1] >= -1e-8, f"seed {seed}, iter {i}"

    def test_weights_sum_to_one(self, rng):
        tag = em_fit(rng.standard_normal((300, 4)), 6, seed=2)
        assert abs(tag.weights.sum() - 1.0) < 1e-12
        assert np.all(tag.variances >= 1e-4)

    def test_insufficient_data(self, rng):
        with pytest.raises(InsufficientDataError):
            em_fit(rng.standard_normal((5, 2)), 8)

    def test_deterministic_given_seed(self, rng):
        data = rng.standard_normal((200, 3))
        a = em_fit(data, 4, seed=7)
        b = em_fit(data, 4, seed=7)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)


class TestScoreUtterance:
    def test_single_frame(self, rng):
        tag = make_tag([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        x = rng.standard_normal((1, 2))
        assert abs(score_utterance(tag, x) - direct_mixture_density(tag, x[0])) < 1e-12

    def test_duplication_invariant(self, rng):
        tag = make_tag(np.full(2, 0.5), rng.standard_normal((2, 3)),
                       rng.uniform(0.5, 2, (2, 3)))
        x = rng.standard_normal((40, 3))
        assert abs(score_utterance(tag, x)
                   - score_utterance(tag, np.tile(x, (2, 1)))) < 1e-12

    def test_matches_bruteforce(self, rng):
        tag = make_tag(np.full(3, 1 / 3), rng.standard_normal((3, 2)),
                       rng.uniform(0.3, 2, (3, 2)))
        x = rng.standard_normal((25, 2))
        slow = np.mean([direct_mixture_density(tag, row) for row in x])
        assert abs(score_utterance(tag, x) - slow) < 1e-8 * max(abs(slow), 1.0)

    def test_empty_utterance(self):
        tag = make_tag([1.0], [[0.0]], [[1.0]])
        with pytest.raises(EmptyUtteranceError):
            score_utterance(tag, FeatureMatrix(data=np.zeros((0, 1))))


@pytest.mark.parametrize("entry, frames, error", [
    ("em_fit", [[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]], ValidationError),
    ("score_utterance", 0.5, DimensionError),
    ("frame_scores", [[0.0, -np.inf]], ValidationError),
    ("gmm_identify", [[np.nan, 0.0], [0.0, 0.0]], ValidationError),
], ids=["em_fit-inf", "score_utterance-0d", "frame_scores-inf", "gmm_identify-nan"])
def test_raw_frames_refused_at_every_entry_point(entry, frames, error):
    """A raw frame array that is not a (T, D) matrix of finite values is a
    typed error, never NaN scores or a roster-order guess."""
    tag = make_tag([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])
    store = stack_tags([tag, tag], ["a", "b"], ["n"])
    call = {"em_fit": lambda x: em_fit(x, 2),
            "score_utterance": lambda x: score_utterance(tag, x),
            "frame_scores": lambda x: frame_scores(store, x),
            "gmm_identify": lambda x: gmm_identify(store, x)}[entry]
    with pytest.raises(error):
        call(np.asarray(frames))


def _toy_store(rng, speakers=("a", "b"), emotions=("neutral", "happy"), identical=False):
    tags = []
    base = make_tag([1.0], rng.standard_normal((1, 2)), [[1.0, 1.0]])
    for spk in speakers:
        mu = base.means if identical else rng.standard_normal((1, 2)) * 4
        tags += [make_tag([1.0], mu, [[1.0, 1.0]]) for emo in emotions]
    return stack_tags(tags, speakers, emotions)


class TestGmmIdentify:
    def test_single_speaker(self, rng):
        store = _toy_store(rng, speakers=("only",))
        best, table = gmm_identify(store, rng.standard_normal((10, 2)))
        assert best == "only" and not table["tie"]

    def test_forced_tie_roster_order(self, rng):
        store = _toy_store(rng, identical=True)
        best, table = gmm_identify(store, rng.standard_normal((10, 2)))
        assert best == "a" and table["tie"]

    def test_picks_closest_speaker(self, rng):
        tags = [make_tag([1.0], [[center, center]], [[1.0, 1.0]]) for center in (0.0, 8.0)]
        store = stack_tags(tags, ["near", "far"], ["neutral"])
        best, _ = gmm_identify(store, rng.standard_normal((30, 2)) * 0.1)
        assert best == "near"

    def test_dimension_mismatch(self, rng):
        store = _toy_store(rng)
        with pytest.raises(DimensionError):
            gmm_identify(store, rng.standard_normal((5, 7)))

    def test_store_requires_full_grid(self, rng):
        tag = make_tag([1.0], [[0.0]], [[1.0]])
        with pytest.raises(DimensionError):
            stack_tags([tag], ["a"], ["neutral", "happy"])
        with pytest.raises(DimensionError):  # no tags at all
            TagStore(speaker_roster=["a"], emotion_roster=[], weights=np.ones((0, 1)),
                     means=np.zeros((0, 1, 1)), variances=np.ones((0, 1, 1)), train_meta=[],
                     front_end={})

    def test_store_arrays_must_agree(self, rng):
        """One shape check covers the per-tag faults a dict of tags allowed:
        tags of another feature dim or component count, or missing records."""
        good = [make_tag([0.5, 0.5], np.zeros((2, 3)), np.ones((2, 3)))] * 2
        store = stack_tags(good, ["a", "b"], ["n"])
        cases = [dict(means=np.zeros((2, 2, 2))), dict(variances=np.ones((2, 2, 4))),
                 dict(weights=np.full((2, 3), 0.5)), dict(means=np.zeros((2, 3))),
                 dict(train_meta=[{}])]
        for change in cases:
            arrays = dict(weights=store.weights, means=store.means,
                          variances=store.variances, train_meta=store.train_meta)
            with pytest.raises(DimensionError):
                TagStore(speaker_roster=["a", "b"], emotion_roster=["n"],
                         front_end={}, **{**arrays, **change})

    @pytest.mark.parametrize("change", [
        dict(variances=np.array([[[1.0]], [[-1.0]]])),
        dict(variances=np.array([[[1.0]], [[0.0]]])),
        dict(weights=np.array([[1.0], [-0.5]])),
        dict(speaker_roster=[["a"], ["b"]]),
        dict(speaker_roster=("a", "b")),
        dict(speaker_roster=["a", "a"]),
        dict(emotion_roster=[7]),
    ], ids=["negative-variance", "zero-variance", "negative-weight", "nested-roster",
            "tuple-roster", "duplicate-roster", "int-roster"])
    def test_store_values_checked(self, change):
        """Variances must be positive, weights non-negative, and each roster
        a list of distinct strings."""
        fields = dict(speaker_roster=["a", "b"], emotion_roster=["n"],
                      weights=np.ones((2, 1)), means=np.zeros((2, 1, 1)),
                      variances=np.ones((2, 1, 1)), train_meta=[{}, {}], front_end={})
        TagStore(**fields)
        with pytest.raises(ValidationError):
            TagStore(**{**fields, **change})
