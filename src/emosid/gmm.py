"""Diagonal-covariance Gaussian mixture models.

One mixture ("tag") is trained per (speaker, emotion) pair. Everything is
evaluated in the log domain; mixture likelihoods use log-sum-exp so that
far-out frames never underflow to -inf.

A ``TagStore`` holds all tags as stacked (K, M, D) arrays in roster order.
``frame_scores`` scores an utterance against every tag of a store at once,
``score_utterance`` against one tag. They and EM's E-step share one kernel:
two matrix products over all frames (``_products``), then the elementwise
tail ``_log_planes`` and one log-sum-exp. A one-tag store scores exactly as
its tag does, and a K-tag store agrees with each of its tags to 1e-14
relative, bit for bit where both matrix products tile alike (8 or 16
mixtures, not 9).

``frame_scores`` uses every CPU the process may use: the products stay
whole, and the tail and log-sum-exp run per row range of frames on helper
threads (``workers.split_rows``). Its bytes do not depend on the CPU count.

Scores are shared per (store, ``FeatureMatrix``) pair: a store keeps the
matrix of the last ``FeatureMatrix`` it scored, so the cascade and GMM-alone
decisions on one utterance score it once. Raw arrays are scored afresh on
every call. Frames are a ``FeatureMatrix`` or a (T, D) array (one vector is
one frame); another shape, no frames or a non-finite value is a typed error.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .errors import DimensionError, EmptyUtteranceError, InsufficientDataError, \
    ValidationError
from .features import FeatureMatrix

DEFAULT_VARIANCE_FLOOR = 1e-4
DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITERS = 200

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GmmTag:
    """One trained mixture: weights, means and diagonal variances."""

    weights: np.ndarray  # (M,)
    means: np.ndarray  # (M, D)
    variances: np.ndarray  # (M, D), floored
    train_meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _logsumexp_planes(planes: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(planes))) over the leading axis of a C-contiguous (M, ...)
    buffer, which it overwrites; the result is planes[0]. A C-contiguous
    float64 work buffer of at least two planes, if given, holds the maximum
    and the tie count; otherwise they get one new buffer.

    The float operations are those of scipy.special.logsumexp (scipy 1.17)
    along a contiguous axis, in its order: the maximum is taken out, the
    entries equal to it are left out of the shifted sum and their count is
    added back as log(count). Each step is one pass over whole planes."""
    if work is None or work.size < 2 * planes[0].size:
        work = np.empty((2,) + planes.shape[1:])
    amax, count = work.reshape(-1)[:2 * planes[0].size].reshape((2,) + planes.shape[1:])
    np.maximum.reduce(planes, axis=0, out=amax)
    count.fill(0.0)
    tie = np.empty(amax.shape, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for p in planes:
            np.equal(p, amax, out=tie)
            count += tie
            p -= amax
            np.exp(p, out=p)
            np.copyto(p, 0.0, where=tie)
        s = _pairwise_into_first(planes)
        s /= count
        np.log1p(s, out=s)
        s += np.log(count, out=count)
        s += amax
    # rows whose maximum is +-inf or nan (a nan row counts no tie): scipy's
    # fallback, log(sum(exp(row))), equals that maximum there
    np.copyto(s, amax, where=~np.isfinite(amax))
    return s


def _pairwise_into_first(planes: np.ndarray) -> np.ndarray:
    """Sum planes into planes[0] in the order in which numpy's pairwise
    summation adds the n elements of a contiguous row: one by one below 8,
    eight running sums combined as a tree up to 128, halves above that."""
    n = len(planes)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return np.add(_pairwise_into_first(planes[:half]),
                      _pairwise_into_first(planes[half:]), out=planes[0])
    tail = n - n % 8 if n >= 8 else 1
    for i in range(8, tail, 8):
        planes[:8] += planes[i:i + 8]
    for step in (1, 2, 4) if n >= 8 else ():
        planes[0:8:2 * step] += planes[step:8:2 * step]
    for p in planes[tail:]:
        planes[0] += p
    return planes[0]


def _component_terms(weights: np.ndarray, means: np.ndarray, variances: np.ndarray):
    """Per-component terms of log w + log N(x | component): 1/var, mean/var,
    sum(mean^2/var), the normalizing constant and log w. Sums run over the
    last (feature) axis, so one tag's arrays and a store's stacked (K, ...)
    arrays give the same values."""
    inv = 1.0 / variances
    const = -0.5 * (means.shape[-1] * _LOG_2PI + np.sum(np.log(variances), axis=-1))
    return inv, means * inv, np.sum(means ** 2 * inv, axis=-1), const, np.log(weights)


def _frames(features) -> np.ndarray:
    """The (T, D) float64 frame matrix of a ``FeatureMatrix`` or an array."""
    x = np.asarray(features.data if isinstance(features, FeatureMatrix) else features, np.float64)
    x = x[None] if x.ndim == 1 else x
    if x.ndim != 2:
        raise DimensionError(f"frames of shape {x.shape}: not a (T, D) matrix")
    if x.shape[0] == 0:
        raise EmptyUtteranceError("cannot score an utterance with no frames")
    if not np.isfinite(x).all():
        raise ValidationError("non-finite feature values")
    return x


def _products(x: np.ndarray, terms) -> tuple:
    """The two matrix products of ``_log_planes``, each over all frames and
    all M*k columns: (x^2) @ (1/var).T and x @ (mean/var).T, (T, M*k) each.
    terms are those of ``_component_terms`` in rows j*k + i (component j of
    tag i): a store's derived fields, or one tag's own arrays with k = 1.

    A product keeps its bytes only at its shape: blocks of frames, a
    transposed product or one product per component change the BLAS kernel
    shapes and last bits. So the products are never split."""
    inv, mean_inv = terms[:2]
    if x.shape[1] != inv.shape[1]:
        raise DimensionError(f"feature dim {x.shape[1]} != model dim {inv.shape[1]}")
    return (x ** 2) @ inv.T, x @ mean_inv.T


def _log_planes(logp: np.ndarray, cross: np.ndarray, terms, k: int) -> np.ndarray:
    """log w + log N(x | component) of frames under every component of k
    tags, as component-major (M, rows, k) planes: planes[j, t, i] is component
    j of tag i. logp and cross are C-contiguous row ranges of ``_products``;
    the affine passes run in place on them, the last written transposed into
    the planes, which are cross's buffer. Every pass is elementwise, so a row
    range gets the bytes of the same rows of the whole products."""
    _, _, mean2_inv, const, log_w = terms
    cross *= 2.0
    logp -= cross
    logp += mean2_inv
    logp *= 0.5
    np.subtract(const, logp, out=logp)
    t = len(logp)
    planes = cross.reshape(-1, t, k)  # component j is planes[j]
    np.add(logp.reshape(t, -1, k).swapaxes(0, 1), log_w.reshape(-1, 1, k), out=planes)
    return planes


def _tag_planes(tag: GmmTag, x: np.ndarray) -> np.ndarray:
    """``_log_planes`` of one tag over all frames, as (M, T)."""
    terms = _component_terms(tag.weights, tag.means, tag.variances)
    return _log_planes(*_products(x, terms), terms, 1)[..., 0]


def _e_step(tag: GmmTag, data: np.ndarray):
    """Per-frame log-likelihood (T,) and posterior component memberships
    (T, M), whose rows sum to 1. The memberships are C-ordered: the M-step's
    sums over frames add in that order."""
    planes = _tag_planes(tag, data)
    resp = planes.T.copy()
    frame_ll = _logsumexp_planes(planes)
    resp -= frame_ll[:, None]
    return frame_ll, np.exp(resp, out=resp)


def _farthest_point_init(data: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Pick m spread-out data points as initial means (deterministic given rng)."""
    chosen = [int(rng.integers(len(data)))]
    d2 = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    for _ in range(1, m):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((data - data[nxt]) ** 2, axis=1))
    return data[chosen].copy()


def em_fit(data, num_components: int, *, max_iters: int = DEFAULT_MAX_ITERS,
           tol: float = DEFAULT_TOL, variance_floor: float = DEFAULT_VARIANCE_FLOOR,
           seed: int = 0) -> GmmTag:
    """Train a diagonal GMM by expectation-maximization.

    Stops when the per-frame average log-likelihood improves by less than
    tol or max_iters is reached. Variances are floored after every M-step;
    iterations where the floor binds are recorded in train_meta, as are
    re-seeded starved components.
    """
    data = _frames(data)
    t = len(data)
    if t < num_components:
        raise InsufficientDataError(
            f"{t} frames < {num_components} components")

    rng = np.random.default_rng(seed)
    means = _farthest_point_init(data, num_components, rng)
    global_var = np.maximum(np.var(data, axis=0), variance_floor)
    variances = np.tile(global_var, (num_components, 1))
    weights = np.full(num_components, 1.0 / num_components)

    tag = GmmTag(weights=weights, means=means, variances=variances)
    history = []
    floor_iters = []
    starvation_events = []

    for it in range(max_iters):
        frame_ll, resp = _e_step(tag, data)
        avg_ll = float(np.mean(frame_ll))
        history.append(avg_ll)
        if len(history) > 1 and history[-1] - history[-2] < tol:
            break
        nk = resp.sum(axis=0)

        starved = np.nonzero(nk < 1e-8)[0]
        if len(starved):
            worst = np.argsort(frame_ll)
            for j, comp in enumerate(starved):
                tag.means[comp] = data[worst[j % t]]
                tag.variances[comp] = np.maximum(global_var, variance_floor)
                starvation_events.append({"iteration": it, "component": int(comp)})
            # redo the E-step with the repaired components
            frame_ll, resp = _e_step(tag, data)
            nk = resp.sum(axis=0)

        tag.weights = nk / t
        tag.means = (resp.T @ data) / nk[:, None]
        second = (resp.T @ (data ** 2)) / nk[:, None]
        variances = second - tag.means ** 2
        floored = np.any(variances < variance_floor)
        if floored:
            floor_iters.append(it)
        tag.variances = np.maximum(variances, variance_floor)

    tag.train_meta = {
        "iterations": len(history),
        "final_avg_log_likelihood": history[-1] if history else None,
        "seed": seed,
        "tol": tol,
        "variance_floor": variance_floor,
        "floor_iterations": floor_iters,
        "starvation_events": starvation_events,
        "log_likelihood_history": history,
    }
    return tag


def score_utterance(tag: GmmTag, features) -> float:
    """Average per-frame log-likelihood of an utterance under one tag."""
    return float(np.mean(_logsumexp_planes(_tag_planes(tag, _frames(features)))))


@dataclass
class TagStore:
    """All trained tags as stacked arrays, with rosters and the settings of
    the front end whose features they were trained on.

    Row k of weights, means and variances (and entry k of train_meta) is the
    tag of speaker k // E and emotion k % E, E being the emotion count: the
    (speaker roster x emotion roster) order. On construction the scoring
    terms of ``frame_scores`` are derived, component-major: row j*K + k is
    component j of tag k. A store's arrays are not to be changed afterwards.

    The store also holds ``frame_scores``' memo: a weak reference to the last
    ``FeatureMatrix`` it scored and that utterance's read-only (K, T) matrix.
    """

    speaker_roster: list
    emotion_roster: list
    weights: np.ndarray  # (K, M)
    means: np.ndarray  # (K, M, D)
    variances: np.ndarray  # (K, M, D), floored
    train_meta: list  # K dicts
    front_end: dict  # opaque here; pipeline.FRONT_END settings
    _inv: np.ndarray = field(init=False, repr=False, compare=False)  # (M*K, D) 1/var
    _mean_inv: np.ndarray = field(init=False, repr=False, compare=False)  # (M*K, D) mean/var
    _mean2_inv: np.ndarray = field(init=False, repr=False, compare=False)  # (M*K,)
    _const: np.ndarray = field(init=False, repr=False, compare=False)  # (M*K,)
    _log_w: np.ndarray = field(init=False, repr=False, compare=False)  # (M*K,)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.speaker_roster) * len(self.emotion_roster)
        shape = self.means.shape
        if (len(shape) != 3 or shape[0] != k or min(shape) < 1
                or self.weights.shape != shape[:2] or self.variances.shape != shape
                or len(self.train_meta) != k):
            raise DimensionError(f"{k} tags; array shapes {self.weights.shape}, {shape}, "
                                 f"{self.variances.shape}; {len(self.train_meta)} records")
        for roster in (self.speaker_roster, self.emotion_roster):
            if (not isinstance(roster, list) or not all(isinstance(x, str) for x in roster)
                    or len(set(roster)) != len(roster)):
                raise ValidationError(f"roster {roster!r} is not a list of distinct strings")
        if not (self.variances > 0).all() or (self.weights < 0).any():
            raise ValidationError("tag variances must be positive and weights non-negative")
        with np.errstate(divide="ignore"):  # a zero weight's log is -inf, silently
            terms = _component_terms(self.weights, self.means, self.variances)
        self._inv, self._mean_inv = (t.swapaxes(0, 1).reshape(-1, self.dim) for t in terms[:2])
        self._mean2_inv, self._const, self._log_w = (t.T.ravel() for t in terms[2:])

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[2]


def frame_scores(store: TagStore, features) -> np.ndarray:
    """Log-likelihood of every frame under every tag, as a (K, T) matrix.

    Row k is tag k in roster order and is contiguous. It matches the row of
    a store of tag k alone to 1e-14 relative, with the same bytes when the
    (T, M*K) and (T, M) products tile alike, as at 8 and 16 mixtures. For a
    ``FeatureMatrix`` the matrix is read-only and kept on the store until
    another ``FeatureMatrix`` is scored: a second call on the same object
    returns it. Scoring uses every usable CPU, and its bytes do not depend
    on the CPU count."""
    if not isinstance(features, FeatureMatrix):
        return _score(store, _frames(features))
    # one read and one write of the entry: concurrent callers may each score
    # the utterance, but never get another utterance's matrix
    memo = store._memo
    if memo is not None and memo[0]() is features:
        return memo[1]
    scores = _score(store, _frames(features))
    scores.flags.writeable = False
    store._memo = (weakref.ref(features), scores)
    return scores


def _score(store: TagStore, x: np.ndarray) -> np.ndarray:
    """``frame_scores`` of a ``_frames`` matrix without the memo: the two
    whole products, then per row range of frames (``workers.split_rows``) the
    store's planes and one log-sum-exp over them, written into the result."""
    terms = (store._inv, store._mean_inv, store._mean2_inv, store._const, store._log_w)
    logp, cross = _products(x, terms)
    k = len(store)
    scores = np.empty((k, len(x)))

    def rows(a: int, b: int) -> None:
        # logp's rows are spent once the planes are built, and the log-sum-exp
        # works in them: new plane-sized arrays would each cost fresh pages
        planes = _log_planes(logp[a:b], cross[a:b], terms, k)
        scores[:, a:b] = _logsumexp_planes(planes, logp[a:b]).T

    workers.split_rows(rows, len(x))
    return scores


def gmm_identify(store: TagStore, features):
    """MAP speaker decision: per speaker, best score over its emotion tags.

    A tag's score is its mean per-frame log-likelihood over the utterance.
    Returns (speaker_id, score_table) where score_table maps speaker to its
    score; ties go to roster order and are flagged.
    """
    per_tag = frame_scores(store, features).mean(axis=1)
    best_emotion = per_tag.reshape(len(store.speaker_roster), -1).max(axis=1)
    scores = {spk: float(v) for spk, v in zip(store.speaker_roster, best_emotion)}
    best = max(store.speaker_roster, key=lambda s: scores[s])
    tie = sum(1 for s in store.speaker_roster if scores[s] == scores[best]) > 1
    return best, {"scores": scores, "tie": tie}
