"""workers.split_rows: one utterance's rows on helper threads, with the bytes
of one CPU."""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from emosid import gmm, workers
from emosid.audio import AudioClip
from emosid.pipeline import PipelineConfig, extract_features

from conftest import grid_store

CPUS = [2, 3, 8]


@pytest.fixture
def ranges(monkeypatch):
    """Rows split down to one per range; records the ranges of every split,
    as (n, [(a, b), ...]), around the real split_rows."""
    monkeypatch.setattr(workers, "MIN_SPLIT_ROWS", 1)
    calls = []
    split_rows = workers.split_rows

    def recording(fn, n):
        got, lock = [], threading.Lock()

        def record(a, b):
            with lock:
                got.append((a, b))
            fn(a, b)
        calls.append((n, got))
        split_rows(record, n)
    monkeypatch.setattr(workers, "split_rows", recording)
    return calls


def assert_tiled(calls, cpus):
    """Each split ran min(cpus, n) ranges that cover range(n) once each."""
    assert calls
    for n, got in calls:
        got = sorted(got)
        assert len(got) == min(cpus, n)
        assert got[0][0] == 0 and got[-1][1] == n
        assert all(b == a2 and a < b for (a, b), (a2, _) in zip(got, got[1:] + [(n, n + 1)]))


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("m", [8, 9])
@pytest.mark.parametrize("t", [1, 50, 601])
def test_frame_scores_bytes_do_not_depend_on_cpu_count(monkeypatch, ranges, cpus, m, t):
    rng = np.random.default_rng(1000 * m + t)
    store = grid_store(rng, 60, m, 13)
    x = rng.standard_normal((t, 13)) * 3.0
    on_cpus(monkeypatch, 1)
    want = gmm.frame_scores(store, x)
    ranges.clear()
    on_cpus(monkeypatch, cpus)
    got = gmm.frame_scores(store, x)
    assert got.flags.c_contiguous and got.shape == (60, t)
    assert got.tobytes() == want.tobytes()
    assert_tiled(ranges, cpus)


@pytest.mark.parametrize("cpus", CPUS)
def test_extract_features_bytes_do_not_depend_on_cpu_count(monkeypatch, ranges, cpus):
    rng = np.random.default_rng(6)
    clip = AudioClip(samples=0.3 * rng.standard_normal(6 * 12000), sample_rate_hz=12000)
    cfg = PipelineConfig()
    on_cpus(monkeypatch, 1)
    want = extract_features(clip, cfg).data
    ranges.clear()
    on_cpus(monkeypatch, cpus)
    got = extract_features(clip, cfg).data
    assert got.shape == (598, 13) and got.tobytes() == want.tobytes()
    assert_tiled(ranges, cpus)


@pytest.mark.parametrize("cpus", CPUS)
def test_helper_error_reaches_the_caller(monkeypatch, ranges, cpus):
    on_cpus(monkeypatch, cpus)

    def fn(a, b):
        if a > 0:
            raise KeyError(f"row {a}")
    with pytest.raises(KeyError, match="row"):
        workers.split_rows(fn, 100)
    assert_tiled(ranges, cpus)


@pytest.mark.parametrize("cpus", CPUS)
def test_caller_error_waits_for_every_helper_range(monkeypatch, ranges, cpus):
    on_cpus(monkeypatch, cpus)
    done = []

    def fn(a, b):
        if a == 0:
            raise ValueError("caller's range")
        time.sleep(0.05)
        done.append(a)
    with pytest.raises(ValueError, match="caller's range"):
        workers.split_rows(fn, 100)
    assert len(done) == cpus - 1
    assert_tiled(ranges, cpus)


def test_one_cpu_short_input_and_pool_workers_run_one_range(monkeypatch, pools):
    def ranges_of(n):
        got = []
        workers.split_rows(lambda a, b: got.append((a, b)), n)
        return got

    on_cpus(monkeypatch, 1)
    assert ranges_of(10 * workers.MIN_SPLIT_ROWS) == [(0, 10 * workers.MIN_SPLIT_ROWS)]
    on_cpus(monkeypatch, 2)
    assert ranges_of(2 * workers.MIN_SPLIT_ROWS - 1) == [(0, 2 * workers.MIN_SPLIT_ROWS - 1)]
    n = 2 * workers.MIN_SPLIT_ROWS
    assert sorted(ranges_of(n)) == [(0, n // 2), (n // 2, n)]
    n = 4 * workers.MIN_SPLIT_ROWS
    assert workers.parallel_map(lambda i: ranges_of(n), 2, 2) == [[(0, n)]] * 2


def test_refused_cpu_still_runs_every_range(monkeypatch, ranges):
    """A helper whose CPU the process may no longer use runs where it may."""
    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")
    monkeypatch.setattr(workers.os, "sched_setaffinity", refuse)
    workers._stop_threads()  # fresh helpers, held to no CPU yet
    on_cpus(monkeypatch, 2)
    rows = np.zeros(10)
    workers.split_rows(lambda a, b: rows.__setitem__(slice(a, b), 1.0), 10)
    assert rows.tolist() == [1.0] * 10
    assert_tiled(ranges, 2)


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_no_helper_thread_at_a_fork(monkeypatch, pools, ranges):
    """parallel_map stops split_rows' helpers before it forks: a worker sees one
    thread and no helper pool."""
    on_cpus(monkeypatch, 2)
    store = grid_store(np.random.default_rng(2), 6, 8, 13)
    gmm.frame_scores(store, np.ones((601, 13)))
    assert workers._threads is not None
    got = workers.parallel_map(
        lambda i: (threading.active_count(), workers._threads is None), 2, 2)
    assert got == [(1, True)] * 2
    assert not [t for t in threading.enumerate() if t.name.startswith("emosid-rows")]
    assert_tiled(ranges, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.parametrize("lock_held", [False, True])
def test_a_forked_child_splits_with_helpers_of_its_own(monkeypatch, ranges, lock_held):
    """A fork made outside parallel_map (a library caller's own, or a
    fork-method multiprocessing pool) after a split: the child's split of
    601 frames ends with the parent's bytes, also when the helper pool's lock
    was held at the fork."""
    on_cpus(monkeypatch, 2)
    rng = np.random.default_rng(3)
    store = grid_store(rng, 6, 8, 13)
    x = rng.standard_normal((601, 13))
    want = gmm.frame_scores(store, x).tobytes()
    assert workers._threads is not None
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forks with threads running
        if lock_held:
            with workers._threads_lock:
                pid = os.fork()
        else:
            pid = os.fork()
    if pid == 0:
        try:
            os.write(write, b"1" if gmm.frame_scores(store, x).tobytes() == want else b"0")
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split never ended")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as fh:
        assert fh.read() == b"1"


def test_concurrent_callers_get_their_own_bytes(monkeypatch, ranges):
    """Four threads scoring at once, on more helpers than CPUs and with a
    short switch interval, each get the one-CPU bytes of their own frames."""
    rng = np.random.default_rng(4)
    store = grid_store(rng, 60, 8, 13)
    frames = [rng.standard_normal((301, 13)) * (1 + i) for i in range(4)]
    on_cpus(monkeypatch, 1)
    want = [gmm.frame_scores(store, x).tobytes() for x in frames]
    on_cpus(monkeypatch, 8)
    got = [[] for _ in frames]

    def caller(i):
        for _ in range(20):
            got[i].append(gmm.frame_scores(store, frames[i]).tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(frames))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[w] * 20 for w in want]
