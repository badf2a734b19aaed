"""frame_scores' one-entry memo per tag store: the cascade and GMM-alone
decisions on one FeatureMatrix share its score matrix, bit for bit."""

import gc
import weakref

import numpy as np
import pytest

from emosid import gmm
from emosid.cascade import SegmentPlan, classify, likelihood_vectors, segment
from emosid.dnn import init_model
from emosid.features import FeatureMatrix
from emosid.gmm import GmmTag, frame_scores, gmm_identify, score_utterance

from conftest import stack_tags, tag_at

PLAN = SegmentPlan(20, 0.5)
SPEAKERS = ("a", "b", "c")
EMOTIONS = ("neutral", "happy")


def make_store(seed):
    rng = np.random.default_rng(seed)
    tags = [GmmTag(weights=np.array([0.3, 0.7]), means=rng.standard_normal((2, 4)) * 2,
                   variances=rng.uniform(0.5, 2.0, (2, 4)))
            for _ in range(len(SPEAKERS) * len(EMOTIONS))]
    return stack_tags(tags, SPEAKERS, EMOTIONS)


def utterance(seed, frames=75):
    return np.random.default_rng(seed).standard_normal((frames, 4)) * 2


def oracle(store, data):
    """Per-tag mean scores from the one-tag reference."""
    return np.array([score_utterance(tag_at(store, k), data) for k in range(len(store))])


@pytest.fixture
def count_scoring(monkeypatch):
    """Counts the matrices frame_scores computes (memo hits are not counted)."""
    calls = []
    real = gmm._score

    def counted(store, data):
        calls.append(len(data))
        return real(store, data)

    monkeypatch.setattr(gmm, "_score", counted)
    return calls


def test_classify_then_identify_share_one_matrix(count_scoring):
    store, data = make_store(1), utterance(2)
    net = init_model(len(store), (8,), len(SPEAKERS), seed=3)
    shared = FeatureMatrix(data.copy())
    decision = classify(store, net, shared, PLAN, "mean")
    speaker, table = gmm_identify(store, shared)
    assert len(count_scoring) == 1

    fresh_decision = classify(store, net, FeatureMatrix(data.copy()), PLAN, "mean")
    fresh_speaker, fresh_table = gmm_identify(store, FeatureMatrix(data.copy()))
    assert len(count_scoring) == 3
    assert decision.posterior.tobytes() == fresh_decision.posterior.tobytes()
    assert decision.per_segment == fresh_decision.per_segment
    assert (speaker, table) == (fresh_speaker, fresh_table)

    want = oracle(store, data)
    assert frame_scores(store, shared).mean(axis=1).tobytes() == want.tobytes()
    best = want.reshape(len(SPEAKERS), -1).max(axis=1)
    assert list(table["scores"].values()) == best.tolist()
    spans = segment(shared, PLAN)
    rows = likelihood_vectors(store, shared, spans)
    for row, (a, b) in zip(rows, spans):
        assert row.tobytes() == oracle(store, data[a:b]).tobytes()


def test_second_store_gets_its_own_matrix():
    first, second, data = make_store(1), make_store(9), utterance(2)
    f = FeatureMatrix(data)
    s1 = frame_scores(first, f)
    s2 = frame_scores(second, f)
    assert s2 is not s1 and s2.tobytes() != s1.tobytes()
    assert frame_scores(first, f) is s1 and frame_scores(second, f) is s2
    assert s2.tobytes() == frame_scores(second, FeatureMatrix(data.copy())).tobytes()
    assert s2.mean(axis=1).tobytes() == oracle(second, data).tobytes()


def test_dropped_feature_matrix_no_longer_matches(count_scoring):
    store, data = make_store(1), utterance(2)
    f = FeatureMatrix(data)
    first = frame_scores(store, f)
    ref = store._memo[0]
    del f
    gc.collect()
    assert ref() is None
    again = frame_scores(store, FeatureMatrix(data))
    assert again is not first and len(count_scoring) == 2
    assert again.tobytes() == first.tobytes()
    assert again.mean(axis=1).tobytes() == oracle(store, data).tobytes()


def test_matrix_is_read_only_and_raw_arrays_are_not_memoised(count_scoring):
    store, data = make_store(1), utterance(2)
    f = FeatureMatrix(data)
    scores = frame_scores(store, f)
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0, 0] = 0.0
    memo = store._memo

    raw = frame_scores(store, data)
    assert raw.flags.writeable and store._memo is memo
    assert frame_scores(store, data) is not raw and len(count_scoring) == 3
    assert raw.tobytes() == scores.tobytes()
    assert raw.mean(axis=1).tobytes() == oracle(store, data).tobytes()


def test_training_loop_keeps_one_matrix_per_store():
    """As in train_models: every utterance stays alive while each is scored."""
    store = make_store(1)
    train = [FeatureMatrix(utterance(seed, 40 + seed)) for seed in range(30)]
    matrices = []
    for f in train:
        likelihood_vectors(store, f, segment(f, PLAN))
        matrices.append(weakref.ref(frame_scores(store, f)))
    gc.collect()
    alive = [m() for m in matrices if m() is not None]
    assert len(alive) == 1 and alive[0] is store._memo[1]
    assert store._memo[0]() is train[-1]
    want = oracle(store, train[-1].data)
    assert alive[0].mean(axis=1).tobytes() == want.tobytes()
