"""Binary containers for features and models.

All three formats share a layout: an 8-byte magic string, a uint32 format
version, a JSON header (describing metadata and array shapes), then the
arrays themselves as row-major little-endian float64, all finite. Round
trips are bit-exact. A tag store is three arrays, weights (K, M), means
(K, M, D) and variances (K, M, D), tag k in (speaker x emotion) roster
order; its header holds the rosters, the shape [K, M, D], one
train_meta record per tag and the front end (pipeline.FRONT_END settings)
the tags were trained under.
"""

from __future__ import annotations

import functools
import json
import struct

import numpy as np

from .dnn import DnnModel
from .errors import ConfigError, ContainerError, DimensionError, ValidationError, \
    VersionError
from .features import FeatureMatrix
from .gmm import TagStore
from .pipeline import FRONT_END, PipelineConfig

FEATURE_MAGIC = b"SIDFEAT\0"
TAGS_MAGIC = b"SIDTAGS\0"
DNN_MAGIC = b"SIDDNN\0\0"
FORMAT_VERSION = 3


def _pack(magic: bytes, header: dict, arrays) -> bytes:
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [magic, struct.pack("<II", FORMAT_VERSION, len(head)), head]
    for arr in arrays:
        out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(out)


def _unpack(magic: bytes, blob: bytes):
    if len(blob) < 16 or blob[:8] != magic:
        raise ContainerError(f"bad magic; expected {magic!r}")
    version, head_len = struct.unpack_from("<II", blob, 8)
    if version != FORMAT_VERSION:
        raise VersionError(f"container version {version}, reader supports {FORMAT_VERSION}")
    if len(blob) < 16 + head_len:
        raise ContainerError("truncated header")
    try:
        header = json.loads(blob[16:16 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"corrupt header: {exc}") from exc
    return header, blob[16 + head_len:]


def _schema_checked(loader):
    """Header schema faults (a missing key, a wrongly typed or shaped value, an
    inconsistent or invalid tag store or front end) end in ContainerError like
    any corrupt container."""
    @functools.wraps(loader)
    def checked(blob: bytes):
        try:
            return loader(blob)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError,
                DimensionError, ValidationError, ConfigError) as exc:
            raise ContainerError(f"bad header: {type(exc).__name__}: {exc}") from exc
    return checked


def _take_arrays(payload: bytes, shapes):
    arrays = []
    pos = 0
    for shape in shapes:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if pos + nbytes > len(payload):
            raise ContainerError("truncated payload")
        arr = np.frombuffer(payload[pos:pos + nbytes], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ContainerError("non-finite value in payload")
        arrays.append(arr)
        pos += nbytes
    if pos != len(payload):
        raise ContainerError("trailing bytes after payload")
    return arrays


# --- features ---

def save_features(fm: FeatureMatrix) -> bytes:
    header = {"meta": fm.meta, "shape": list(fm.data.shape)}
    return _pack(FEATURE_MAGIC, header, [fm.data])


@_schema_checked
def load_features(blob: bytes) -> FeatureMatrix:
    header, payload = _unpack(FEATURE_MAGIC, blob)
    if len(header["shape"]) != 2 or not isinstance(header["meta"], dict):
        raise ContainerError("feature header needs a 2-D shape and a meta object")
    (data,) = _take_arrays(payload, [tuple(header["shape"])])
    return FeatureMatrix(data=data, meta=header["meta"])


# --- GMM tag store ---

def save_tag_store(store: TagStore) -> bytes:
    header = {
        "speaker_roster": list(store.speaker_roster),
        "emotion_roster": list(store.emotion_roster),
        "shape": list(store.means.shape),
        "train_meta": store.train_meta,
        "front_end": store.front_end,
    }
    return _pack(TAGS_MAGIC, header, [store.weights, store.means, store.variances])


@_schema_checked
def load_tag_store(blob: bytes) -> TagStore:
    header, payload = _unpack(TAGS_MAGIC, blob)
    if len(header["shape"]) != 3 or not isinstance(header["train_meta"], list):
        raise ContainerError("tag header needs a 3-D shape and a train_meta list")
    front_end = header["front_end"]
    if not isinstance(front_end, dict) or set(front_end) != set(FRONT_END):
        raise ContainerError(f"tag header needs a front_end with exactly {FRONT_END}")
    PipelineConfig(**front_end)
    k, m, d = header["shape"]
    weights, means, variances = _take_arrays(payload, [(k, m), (k, m, d), (k, m, d)])
    return TagStore(speaker_roster=header["speaker_roster"],
                    emotion_roster=header["emotion_roster"],
                    weights=weights, means=means, variances=variances,
                    train_meta=header["train_meta"], front_end=front_end)


# --- DNN model ---

def save_dnn(model: DnnModel) -> bytes:
    header = {
        "layer_shapes": [list(w.shape) for w in model.weights],
        "standardized": model.input_standardization is not None,
        "train_meta": model.train_meta,
    }
    arrays = []
    if model.input_standardization is not None:
        mean, std = model.input_standardization
        arrays += [mean, std]
    for w, b in zip(model.weights, model.biases):
        arrays += [w, b]
    return _pack(DNN_MAGIC, header, arrays)


@_schema_checked
def load_dnn(blob: bytes) -> DnnModel:
    header, payload = _unpack(DNN_MAGIC, blob)
    if not isinstance(header["standardized"], bool):
        raise ContainerError("'standardized' must be true or false")
    layer_shapes = header["layer_shapes"]
    if any(a[1] != b[0] for a, b in zip(layer_shapes, layer_shapes[1:])):
        raise ContainerError(f"layer shapes {layer_shapes} do not chain")
    shapes = []
    in_size = layer_shapes[0][0]
    if header["standardized"]:
        shapes += [(in_size,), (in_size,)]
    for shp in layer_shapes:
        shapes += [tuple(shp), (shp[1],)]
    arrays = _take_arrays(payload, shapes)
    standardization = tuple(arrays[:2]) if header["standardized"] else None
    if standardization is not None and not (standardization[1] > 0).all():
        raise ContainerError("input standardization std must be positive")
    layers = arrays[2:] if header["standardized"] else arrays
    return DnnModel(weights=layers[0::2], biases=layers[1::2],
                    input_standardization=standardization,
                    train_meta=header["train_meta"])


def write_file(path, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


def read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
