"""Binary container round trips: features, tag stores, DNN models."""

import json
import struct

import numpy as np
import pytest

from emosid.containers import (
    DNN_MAGIC,
    FEATURE_MAGIC,
    load_dnn,
    load_features,
    load_tag_store,
    save_dnn,
    save_features,
    save_tag_store,
)
from emosid.dnn import TrainConfig, init_model, train
from emosid.errors import ContainerError, VersionError
from emosid.features import FeatureMatrix
from emosid.gmm import GmmTag, TagStore


@pytest.fixture
def store(rng):
    tags = {}
    for spk in ("a", "b"):
        for emo in ("neutral", "happy"):
            tags[(spk, emo)] = GmmTag(
                weights=np.array([0.25, 0.75]),
                means=rng.standard_normal((2, 3)),
                variances=rng.uniform(0.5, 2.0, (2, 3)),
                label=(spk, emo),
                train_meta={"seed": 1, "iterations": 5})
    return TagStore(tags=tags, speaker_roster=["a", "b"],
                    emotion_roster=["neutral", "happy"])


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
        with pytest.raises(VersionError, match="99.*1"):
            load_features(bytes(blob))

    def test_corrupt_header(self):
        blob = FEATURE_MAGIC + struct.pack("<II", 1, 4) + b"{bad"
        with pytest.raises(ContainerError):
            load_features(blob)


class TestTagStore:
    def test_roundtrip_bit_exact(self, store):
        back = load_tag_store(save_tag_store(store))
        assert back.speaker_roster == store.speaker_roster
        assert back.emotion_roster == store.emotion_roster
        for key, tag in store.tags.items():
            np.testing.assert_array_equal(back.tags[key].weights, tag.weights)
            np.testing.assert_array_equal(back.tags[key].means, tag.means)
            np.testing.assert_array_equal(back.tags[key].variances, tag.variances)
            assert back.tags[key].train_meta == tag.train_meta

    def test_double_roundtrip_stable(self, store):
        once = save_tag_store(store)
        twice = save_tag_store(load_tag_store(once))
        assert once == twice


class TestDnn:
    def test_roundtrip_bit_exact(self, rng):
        std = (rng.standard_normal(4), rng.uniform(0.5, 2, 4))
        model = train(rng.standard_normal((30, 4)), rng.integers(0, 3, 30),
                      TrainConfig(epochs=2, seed=5), hidden_sizes=(8, 8),
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


def _first_tag(change):
    return lambda h: {**h, "tags": [change(h["tags"][0])] + h["tags"][1:]}


def _valid_blob(kind):
    if kind == "features":
        return save_features(FeatureMatrix(data=np.ones((3, 2)), meta={"frame_ms": 25.0}))
    if kind == "tags":
        tags = {(spk, "n"): GmmTag(weights=np.array([1.0]), means=np.zeros((1, 2)),
                                   variances=np.ones((1, 2)), label=(spk, "n"))
                for spk in ("a", "b")}
        return save_tag_store(TagStore(tags=tags, speaker_roster=["a", "b"],
                                       emotion_roster=["n"]))
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
    "tags-no-tags": ("tags", _drop("tags")),
    "tags-no-speaker-roster": ("tags", _drop("speaker_roster")),
    "tags-no-emotion-roster": ("tags", _drop("emotion_roster")),
    "tags-roster-int": ("tags", _set("speaker_roster", 5)),
    "tags-tags-dict": ("tags", _set("tags", {"a": 1})),
    "tags-tag-no-dim": ("tags", _first_tag(_drop("dim"))),
    "tags-tag-no-label": ("tags", _first_tag(_drop("label"))),
    "tags-tag-no-components": ("tags", _first_tag(_drop("num_components"))),
    "tags-tag-no-train-meta": ("tags", _first_tag(_drop("train_meta"))),
    "tags-tag-components-str": ("tags", _first_tag(_set("num_components", "1"))),
    "tags-tag-label-str": ("tags", _first_tag(_set("label", "a"))),
    "tags-tag-dim-mismatch": ("tags", _first_tag(_set("dim", 1))),
    "tags-header-list": ("tags", lambda h: [h]),
    "dnn-no-layer-shapes": ("dnn", _drop("layer_shapes")),
    "dnn-no-standardized": ("dnn", _drop("standardized")),
    "dnn-no-train-meta": ("dnn", _drop("train_meta")),
    "dnn-layers-empty": ("dnn", _set("layer_shapes", [])),
    "dnn-layers-str": ("dnn", _set("layer_shapes", "x")),
    "dnn-layer-1d": ("dnn", _set("layer_shapes", [[3], [4, 2]])),
    "dnn-layers-do-not-chain": ("dnn", _set("layer_shapes", [[3, 4], [2, 4]])),
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
