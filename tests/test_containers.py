"""Binary container round trips: features, tag stores, DNN models."""

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emosid.containers import (
    DNN_MAGIC,
    FEATURE_MAGIC,
    FORMAT_VERSION,
    load_dnn,
    load_features,
    load_tag_store,
    save_dnn,
    save_features,
    save_tag_store,
)
from emosid.dnn import init_model, train
from emosid.errors import ContainerError, EmosidError, VersionError
from emosid.features import FeatureMatrix
from emosid.gmm import TagStore, frame_scores
from emosid.pipeline import PipelineConfig

from conftest import v1_tag_store, v2_tag_store


@pytest.fixture
def store(rng):
    return TagStore(speaker_roster=["a", "b"], emotion_roster=["neutral", "happy"],
                    weights=np.tile([0.25, 0.75], (4, 1)),
                    means=rng.standard_normal((4, 2, 3)),
                    variances=rng.uniform(0.5, 2.0, (4, 2, 3)),
                    train_meta=[{"seed": k, "iterations": 5} for k in range(4)],
                    front_end=PipelineConfig(frame_ms=40.0, hop_ms=20.0).front_end())


class TestFeatures:
    def test_roundtrip_bit_exact(self, rng):
        fm = FeatureMatrix(data=rng.standard_normal((17, 13)),
                           meta={"source_id": "x.wav", "frame_ms": 25.0})
        back = load_features(save_features(fm))
        np.testing.assert_array_equal(back.data, fm.data)
        assert back.meta == fm.meta

    def test_empty_matrix(self):
        fm = FeatureMatrix(data=np.zeros((0, 13)))
        back = load_features(save_features(fm))
        assert back.data.shape == (0, 13)

    def test_wrong_magic(self, rng):
        blob = save_features(FeatureMatrix(data=rng.standard_normal((2, 2))))
        with pytest.raises(ContainerError):
            load_features(DNN_MAGIC + blob[8:])

    def test_truncated_payload(self, rng):
        blob = save_features(FeatureMatrix(data=rng.standard_normal((4, 4))))
        with pytest.raises(ContainerError):
            load_features(blob[:-8])

    def test_trailing_bytes(self, rng):
        blob = save_features(FeatureMatrix(data=rng.standard_normal((4, 4))))
        with pytest.raises(ContainerError):
            load_features(blob + b"\x00" * 8)

    def test_future_version_names_both(self, rng):
        blob = bytearray(save_features(FeatureMatrix(data=np.zeros((1, 1)))))
        blob[8:12] = struct.pack("<I", 99)
        with pytest.raises(VersionError, match="99.*3"):
            load_features(bytes(blob))

    def test_corrupt_header(self):
        blob = FEATURE_MAGIC + struct.pack("<II", FORMAT_VERSION, 4) + b"{bad"
        with pytest.raises(ContainerError):
            load_features(blob)


class TestTagStore:
    def test_roundtrip_bit_exact(self, store):
        back = load_tag_store(save_tag_store(store))
        assert back.speaker_roster == store.speaker_roster
        assert back.emotion_roster == store.emotion_roster
        np.testing.assert_array_equal(back.weights, store.weights)
        np.testing.assert_array_equal(back.means, store.means)
        np.testing.assert_array_equal(back.variances, store.variances)
        assert back.train_meta == store.train_meta
        assert back.front_end == store.front_end

    def test_double_roundtrip_stable(self, store):
        once = save_tag_store(store)
        twice = save_tag_store(load_tag_store(once))
        assert once == twice

    def test_v1_container_is_a_version_error(self, store):
        """The version-1 layout (one header record and three arrays per tag)
        is refused, not misread."""
        with pytest.raises(VersionError, match="version 1"):
            load_tag_store(v1_tag_store(store))

    def test_v2_container_is_a_version_error(self, store):
        """The version-2 layout has no front end; it is refused, not read
        with a guessed one."""
        with pytest.raises(VersionError, match="version 2"):
            load_tag_store(v2_tag_store(store))


    def test_zero_weight_round_trip_is_silent(self, rng):
        """A zero component weight is valid; building, saving and loading the
        store warns of nothing, and its log weight is -inf as np.log gives it."""
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = TagStore(speaker_roster=["a", "b"], emotion_roster=["neutral"],
                             weights=weights, means=rng.standard_normal((2, 2, 3)),
                             variances=rng.uniform(0.5, 2.0, (2, 2, 3)),
                             train_meta=[{}, {}], front_end=PipelineConfig().front_end())
            back = load_tag_store(save_tag_store(store))
            scores = frame_scores(back, rng.standard_normal((5, 3)))
        with np.errstate(divide="ignore"):
            expected = np.log(weights).T.ravel()
        assert back._log_w.tobytes() == store._log_w.tobytes() == expected.tobytes()
        assert np.isneginf(back._log_w).sum() == 2
        assert np.isfinite(scores).all()


class TestDnn:
    def test_roundtrip_bit_exact(self, rng):
        std = (rng.standard_normal(4), rng.uniform(0.5, 2, 4))
        model = train(rng.standard_normal((30, 4)), rng.integers(0, 3, 30), (8, 8), 3,
                      learning_rate=0.01, epochs=2, batch_size=32, lr_decay=0.98, seed=5,
                      input_standardization=std)
        back = load_dnn(save_dnn(model))
        for wa, wb in zip(model.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(model.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(back.input_standardization[0], std[0])
        np.testing.assert_array_equal(back.input_standardization[1], std[1])
        assert back.train_meta == model.train_meta

    def test_without_standardization(self):
        model = init_model(3, (4,), 2, seed=0)
        back = load_dnn(save_dnn(model))
        assert back.input_standardization is None
        assert back.input_size == 3 and back.output_size == 2

    def test_truncated_no_partial_model(self):
        blob = save_dnn(init_model(3, (4,), 2, seed=0))
        with pytest.raises(ContainerError):
            load_dnn(blob[: len(blob) // 2])


def _rewrite_header(blob, change):
    """The same container with its JSON header passed through change."""
    (head_len,) = struct.unpack_from("<I", blob, 12)
    head = json.dumps(change(json.loads(blob[16:16 + head_len]))).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(head)) + head + blob[16 + head_len:]


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _set(key, value):
    return lambda h: {**h, key: value}


def _front_end(change):
    return lambda h: {**h, "front_end": change(h["front_end"])}


def _valid_blob(kind):
    if kind == "features":
        return save_features(FeatureMatrix(data=np.ones((3, 2)), meta={"frame_ms": 25.0}))
    if kind == "tags":  # K=2 tags, M=1, D=2: a payload of 10 values
        return save_tag_store(TagStore(
            speaker_roster=["a", "b"], emotion_roster=["n"], weights=np.ones((2, 1)),
            means=np.zeros((2, 1, 2)), variances=np.ones((2, 1, 2)), train_meta=[{}, {}],
            front_end=PipelineConfig().front_end()))
    return save_dnn(init_model(3, (4,), 2, seed=0,
                               input_standardization=(np.zeros(3), np.ones(3))))


_LOADERS = {"features": load_features, "tags": load_tag_store, "dnn": load_dnn}

_SCHEMA_FAULTS = {
    "features-no-shape": ("features", _drop("shape")),
    "features-no-meta": ("features", _drop("meta")),
    "features-shape-str": ("features", _set("shape", "x")),
    "features-shape-1d": ("features", _set("shape", [6])),
    "features-shape-negative": ("features", _set("shape", [-1, 2])),
    "features-shape-float": ("features", _set("shape", [3.0, 2])),
    "features-meta-list": ("features", _set("meta", [1, 2])),
    "features-header-list": ("features", lambda h: [h]),
    "tags-no-tags": ("tags", lambda h: _drop("shape")(_drop("train_meta")(h))),
    "tags-no-speaker-roster": ("tags", _drop("speaker_roster")),
    "tags-no-emotion-roster": ("tags", _drop("emotion_roster")),
    "tags-roster-int": ("tags", _set("speaker_roster", 5)),
    "tags-shape-huge": ("tags", _set("shape", [2**70, 1, 2])),
    "tags-no-shape": ("tags", _drop("shape")),
    "tags-shape-str": ("tags", _set("shape", "x")),
    "tags-shape-2d": ("tags", _set("shape", [2, 5])),
    "tags-shape-not-rosters": ("tags", _set("shape", [1, 2, 2])),  # also 10 values
    "tags-no-train-meta": ("tags", _drop("train_meta")),
    "tags-train-meta-dict": ("tags", _set("train_meta", {"a": {}, "b": {}})),
    "tags-train-meta-short": ("tags", _set("train_meta", [{}])),
    "tags-train-meta-long": ("tags", _set("train_meta", [{}, {}, {}])),
    "tags-header-list": ("tags", lambda h: [h]),
    "tags-roster-nested": ("tags", _set("speaker_roster", [["a"], ["b"]])),
    "tags-roster-duplicate": ("tags", _set("speaker_roster", ["a", "a"])),
    "tags-no-front-end": ("tags", _drop("front_end")),
    "tags-front-end-list": ("tags", _set("front_end", [])),
    "tags-front-end-short": ("tags", _front_end(_drop("log_floor"))),
    "tags-front-end-extra": ("tags", _front_end(_set("mixtures", 8))),
    "tags-front-end-float-rate": ("tags", _front_end(_set("target_rate_hz", 12000.5))),
    "tags-front-end-invalid": ("tags", _front_end(_set("pre_emphasis", 1.5))),
    "dnn-no-layer-shapes": ("dnn", _drop("layer_shapes")),
    "dnn-no-standardized": ("dnn", _drop("standardized")),
    "dnn-no-train-meta": ("dnn", _drop("train_meta")),
    "dnn-layers-empty": ("dnn", _set("layer_shapes", [])),
    "dnn-layers-str": ("dnn", _set("layer_shapes", "x")),
    "dnn-layer-1d": ("dnn", _set("layer_shapes", [[3], [4, 2]])),
    "dnn-layers-do-not-chain": ("dnn", _set("layer_shapes", [[3, 4], [2, 4]])),
    "dnn-layers-break-chain": ("dnn", _set("layer_shapes", [[3, 4], [9, 1]])),  # 26 values
    "dnn-standardized-str": ("dnn", _set("standardized", "yes")),
    "dnn-header-list": ("dnn", lambda h: [h]),
}


@pytest.mark.parametrize("case", sorted(_SCHEMA_FAULTS))
def test_header_schema_faults_are_container_errors(case):
    kind, change = _SCHEMA_FAULTS[case]
    blob = _valid_blob(kind)
    _LOADERS[kind](blob)  # the untouched container loads
    with pytest.raises(ContainerError):
        _LOADERS[kind](_rewrite_header(blob, change))


@pytest.mark.parametrize("kind, value", [("features", -np.inf), ("tags", np.nan),
                                         ("dnn", np.inf)])
def test_non_finite_payload_value_refused(kind, value):
    """The last payload value (a feature, a tag variance, an output bias)
    made non-finite."""
    blob = _valid_blob(kind)
    _LOADERS[kind](blob)
    with pytest.raises(ContainerError, match="non-finite"):
        _LOADERS[kind](blob[:-8] + struct.pack("<d", value))


@pytest.mark.parametrize("index, value", [(9, -1.0), (9, 0.0), (0, -0.5)],
                         ids=["negative-variance", "zero-variance", "negative-weight"])
def test_invalid_tag_values_refused(index, value):
    """A finite but invalid payload value: the last variance or the first
    weight of a payload of 2 weights, 4 means and 4 variances."""
    blob = bytearray(_valid_blob("tags"))
    start = len(blob) - 80 + 8 * index
    blob[start:start + 8] = struct.pack("<d", value)
    with pytest.raises(ContainerError, match="variances must be positive"):
        load_tag_store(bytes(blob))


@pytest.mark.parametrize("index, value", [(3, 0.0), (5, -1.0)], ids=["zero-std", "negative-std"])
def test_non_positive_standardization_std_refused(index, value):
    """A finite std entry of the input standardization set to zero or below,
    which would make every network output NaN. The payload holds 3 means,
    3 stds and the 26 values of the layers."""
    blob = bytearray(_valid_blob("dnn"))
    start = len(blob) - 8 * 32 + 8 * index
    assert struct.unpack_from("<d", blob, start) == (1.0,)
    blob[start:start + 8] = struct.pack("<d", value)
    with pytest.raises(ContainerError, match="std must be positive"):
        load_dnn(bytes(blob))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)
_HEADER_KEYS = ["meta", "shape", "speaker_roster", "emotion_roster", "train_meta",
                "front_end", "layer_shapes", "standardized"]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_LOADERS)),
       header=st.dictionaries(st.sampled_from(_HEADER_KEYS), _JSON, max_size=2),
       raw=st.none() | st.binary(max_size=120),
       edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=6),
       cut=st.none() | st.integers(0, 2**16))
def test_fuzzed_containers_raise_only_emosid_errors(kind, header, raw, edits, cut):
    """A valid container with header values replaced by random JSON, or with
    random bytes after its magic and version, then with bytes overwritten and
    the end cut off, either loads or raises an EmosidError."""
    valid = _rewrite_header(_valid_blob(kind), lambda h: {**h, **header})
    blob = bytearray(valid if raw is None else valid[:12] + raw)
    for pos, byte in edits:
        if blob:
            blob[pos % len(blob)] = byte
    if cut is not None:
        del blob[cut % (len(blob) + 1):]
    try:
        _LOADERS[kind](bytes(blob))
    except EmosidError:
        pass
