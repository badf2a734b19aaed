"""Outside-in span tracer for the emosid layers.

The tracer wraps module-level functions of the emosid package from outside
it: no code under src/ knows it exists. Each function named in
LAYER_FUNCTIONS is replaced, in every loaded emosid module that binds it,
by a wrapper that records one span per call (function, start, end, parent
span) plus the amount of work the call did. A function imported into
another module by name (``from .corpus import interference_clip``) is
therefore wrapped where it is looked up, too.

Spans stay in memory until the run ends. ``Tracer.summary`` turns them
into per-layer self times: a span's self time is its duration minus the
durations of its direct child spans, so the layers add up to the traced
wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np

# (defining module, function, layer). Self times and counts are summed by
# layer. A function that no longer exists is reported as absent.
LAYER_FUNCTIONS = (
    ("emosid.corpus", "generate_synthetic", "corpus.synth"),
    ("emosid.corpus", "synthesize_utterance", "corpus.synth"),
    ("emosid.audio", "save_wav", "corpus.synth"),
    ("emosid.audio", "load_wav", "audio.load_wav"),
    ("emosid.audio", "resample", "audio.resample"),
    ("emosid.audio", "pre_emphasize", "audio.frame"),
    ("emosid.audio", "frame_and_window", "audio.frame"),
    ("emosid.audio", "mix_interference", "audio.mix"),
    ("emosid.corpus", "interference_clip", "audio.mix"),
    ("emosid.features", "mfcc", "features.mfcc"),
    ("emosid.pipeline", "extract_features", "pipeline.front_end"),
    ("emosid.pipeline", "load_entry_features", "pipeline.front_end"),
    ("emosid.pipeline", "build_bank", "pipeline.front_end"),
    ("emosid.pipeline", "train_models", "pipeline.orchestration"),
    ("emosid.pipeline", "evaluate_models", "pipeline.orchestration"),
    ("emosid.gmm", "em_fit", "gmm.em_fit"),
    ("emosid.gmm", "score_utterance", "gmm.score"),
    ("emosid.gmm", "gmm_identify", "gmm.identify"),
    ("emosid.cascade", "segment", "cascade.segment"),
    ("emosid.cascade", "likelihood_vector", "cascade.likelihood"),
    ("emosid.cascade", "classify", "cascade.classify"),
    ("emosid.cascade", "classify_dnn_only", "cascade.classify_dnn_only"),
    ("emosid.dnn", "train", "dnn.train"),
    ("emosid.dnn", "forward", "dnn.forward"),
    ("emosid.containers", "save_features", "containers.save"),
    ("emosid.containers", "save_tag_store", "containers.save"),
    ("emosid.containers", "save_dnn", "containers.save"),
    ("emosid.containers", "write_file", "containers.save"),
    ("emosid.containers", "load_features", "containers.load"),
    ("emosid.containers", "load_tag_store", "containers.load"),
    ("emosid.containers", "load_dnn", "containers.load"),
    ("emosid.containers", "read_file", "containers.load"),
    ("emosid.pipeline", "evaluation_report", "evaluation.report"),
    ("emosid.evaluation", "sid_performance", "evaluation.report"),
    ("emosid.evaluation", "confusion_matrix", "evaluation.report"),
    ("emosid.evaluation", "students_t", "evaluation.report"),
    ("emosid.evaluation", "compare_two", "evaluation.report"),
)

# Layers whose self time is reported, in output order; "bench.other" is
# the traced time spent outside every wrapped function.
LAYERS = (
    "corpus.synth", "audio.load_wav", "audio.resample", "audio.frame", "audio.mix",
    "features.mfcc", "pipeline.front_end", "pipeline.orchestration",
    "gmm.em_fit", "gmm.score", "gmm.identify",
    "cascade.segment", "cascade.likelihood", "cascade.classify",
    "cascade.classify_dnn_only", "dnn.train", "dnn.forward",
    "containers.save", "containers.load", "evaluation.report",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _array(x) -> np.ndarray:
    """The frames of a FeatureMatrix, or x itself as an array."""
    data = getattr(x, "data", None)
    return data if isinstance(data, np.ndarray) else np.asarray(x)


def _rows(x) -> int:
    return int(np.atleast_2d(_array(x)).shape[0])


def _count_train(tracer, idx, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "inputs"))
    epochs, batch = result.train_meta["epochs"], result.train_meta["batch_size"]
    tracer.samples[idx] = epochs * n
    return epochs * -(-n // batch)


def _count_score(tracer, idx, args, kwargs, result):
    tag = _arg(args, kwargs, 0, "tag")
    data = _array(_arg(args, kwargs, 1, "features"))
    tracer.note_scored(idx, tag, data)
    return int(data.shape[0])


def _blob_len(pos):
    return lambda t, i, a, k, r: len(_arg(a, k, pos, "blob"))


# "module.function" -> items(tracer, span, args, kwargs, result): the work one call did
_COUNTERS = {
    "gmm.em_fit": lambda t, i, a, k, r: int(r.train_meta.get("iterations", 0)),
    "gmm.score_utterance": _count_score,
    "cascade.segment": lambda t, i, a, k, r: len(r),
    "features.mfcc": lambda t, i, a, k, r: int(r.num_frames),
    "dnn.forward": lambda t, i, a, k, r: _rows(_arg(a, k, 1, "x")),
    "dnn.train": _count_train,
    "containers.save_features": lambda t, i, a, k, r: len(r),
    "containers.save_tag_store": lambda t, i, a, k, r: len(r),
    "containers.save_dnn": lambda t, i, a, k, r: len(r),
    "containers.load_features": _blob_len(0),
    "containers.load_tag_store": _blob_len(0),
    "containers.load_dnn": _blob_len(0),
}


class Tracer:
    """Records spans of the wrapped emosid functions while installed.

    Use as a context manager; leaving it restores every original binding.
    ``phase`` opens a span of the benchmark's own, so that set-up and
    measured work can be summarized apart.
    """

    def __init__(self, functions=LAYER_FUNCTIONS):
        self.functions = tuple(functions)
        self.function_names = []  # span name id -> "module.function"
        self.function_layers = []  # span name id -> layer
        self.absent = []
        self.name, self.parent, self.start, self.end, self.items = [], [], [], [], []
        self.samples = {}  # dnn.train span -> training samples seen
        self._stack = []
        self._patches = []
        self._scored = []  # (span, id(root), id(tag), first_row, stop_row)
        self._keep = {}  # id -> object, so ids are not reused while tracing

    # --- installation ---

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        for module_name, func_name, layer in self.functions:
            qualified = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(qualified)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(original, self._name_id(qualified, layer),
                                 _COUNTERS.get(qualified))
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "emosid" and not mod_name.startswith("emosid."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _name_id(self, name: str, layer: str) -> int:
        self.function_names.append(name)
        self.function_layers.append(layer)
        return len(self.function_names) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.items.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name_id, count):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                self.items[idx] = count(self, idx, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span of the benchmark's own; yields its index."""
        idx = self._open(self._name_id(name, "bench.other"))
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # --- frame x tag bookkeeping for the rescore ratio ---

    def note_scored(self, idx: int, tag, data: np.ndarray) -> None:
        root = data
        while isinstance(root.base, np.ndarray):
            root = root.base
        first = 0
        if root is not data and root.ndim == 2 and root.strides[0] == data.strides[0]:
            first = (data.__array_interface__["data"][0]
                     - root.__array_interface__["data"][0]) // root.strides[0]
        else:
            root = data
        self._keep[id(root)] = root
        self._keep[id(tag)] = tag
        self._scored.append((idx, id(root), id(tag), first, first + data.shape[0]))

    def unique_frame_tags(self, spans) -> int:
        """Distinct (frame, tag) pairs scored by the given score spans."""
        by_key = {}
        for idx, root, tag, a, b in self._scored:
            if idx in spans:
                by_key.setdefault((root, tag), []).append((a, b))
        total = 0
        for intervals in by_key.values():
            intervals.sort()
            lo, hi = intervals[0]
            for a, b in intervals[1:]:
                if a > hi:
                    total += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            total += hi - lo
        return total

    # --- results ---

    def calls_by_function(self) -> dict:
        counts = np.bincount(np.asarray(self.name, dtype=np.int64),
                             minlength=len(self.function_names))
        return {name: int(c) for name, c in zip(self.function_names, counts)}

    def summary(self, root: int) -> dict:
        """Self time, calls and items per layer for the spans inside `root`.

        The root span's own self time is booked to "bench.other". A
        dnn.forward call made inside dnn.train is training work: its time is
        booked to dnn.train and its rows are not counted as inference.
        """
        n = len(self.start)
        parent, name, items = self.parent, self.name, self.items
        dur = [e - s for s, e in zip(self.start, self.end)]
        member = [False] * n
        member[root] = True
        child = [0.0] * n
        for i in range(root + 1, n):
            if parent[i] >= 0 and member[parent[i]]:
                member[i] = True
                child[parent[i]] += dur[i]

        out = {layer: {"self_s": 0.0, "calls": 0, "items": 0, "spans": []}
               for layer in LAYERS + ("bench.other",)}
        in_train = [False] * n
        for i in range(root, n):
            if not member[i]:
                continue
            layer = "bench.other" if i == root else self.function_layers[name[i]]
            inherited = i != root and in_train[parent[i]]
            in_train[i] = inherited or layer == "dnn.train"
            rec = out.setdefault("dnn.train" if inherited else layer,
                                 {"self_s": 0.0, "calls": 0, "items": 0, "spans": []})
            rec["self_s"] += dur[i] - child[i]
            if not inherited and i != root:
                rec["calls"] += 1
                rec["items"] += items[i]
                rec["spans"].append(i)
        return out

    def write_spans(self, path, t0: float) -> None:
        """Write every span as columns; times are seconds from t0."""
        with open(path, "w") as fh:
            json.dump({
                "functions": self.function_names,
                "layers": self.function_layers,
                "absent": self.absent,
                "name": self.name,
                "parent": self.parent,
                "start": [round(t - t0, 7) for t in self.start],
                "end": [round(t - t0, 7) for t in self.end],
                "items": self.items,
            }, fh)


def silent_functions(expected, calls: dict) -> list:
    """Expected functions that are present but recorded no call."""
    return [f for f in expected if calls.get(f, 1) == 0]


def _rate(num, seconds):
    return num / seconds if seconds > 0 else 0.0


def layer_times(summary: dict, prefix: str = "") -> dict:
    """Self seconds per layer; with bench.other they add up to the phase wall."""
    return {f"{prefix}{layer}_s": (summary[layer]["self_s"], "s")
            for layer in LAYERS + ("bench.other",)}


def work_metrics(tracer: Tracer, root: int) -> dict:
    """Per-layer times and counts for the phase span `root`: name -> (value, unit)."""
    s = tracer.summary(root)

    def t(layer):
        return s[layer]["self_s"]

    frame_tags = s["gmm.score"]["items"]
    unique = tracer.unique_frame_tags(set(s["gmm.score"]["spans"]))
    samples = sum(tracer.samples.get(i, 0) for i in s["dnn.train"]["spans"])
    m = layer_times(s)
    m.update({
        "features.mfcc_frames": (s["features.mfcc"]["items"], "count"),
        "features.mfcc_frames_per_s": (
            _rate(s["features.mfcc"]["items"], t("features.mfcc")), "frames/s"),
        "gmm.em_iterations": (s["gmm.em_fit"]["items"], "count"),
        "gmm.score_calls": (s["gmm.score"]["calls"], "count"),
        "gmm.score_frame_tags": (frame_tags, "count"),
        "gmm.score_frame_tags_per_s": (_rate(frame_tags, t("gmm.score")), "frame_tags/s"),
        "gmm.rescore_ratio": (_rate(frame_tags, unique), "ratio"),
        "gmm.identify_calls": (s["gmm.identify"]["calls"], "count"),
        "cascade.segments": (s["cascade.segment"]["items"], "count"),
        "dnn.train_steps": (s["dnn.train"]["items"], "count"),
        "dnn.train_samples_per_s": (_rate(samples, t("dnn.train")), "samples/s"),
        "dnn.forward_rows": (s["dnn.forward"]["items"], "count"),
        "containers.bytes": (
            s["containers.save"]["items"] + s["containers.load"]["items"], "count"),
    })
    return m
