"""Every usable CPU for the program's work, in two forms: fork workers for a
stage's independent jobs (``parallel_map``), and helper threads for the rows
of one utterance (``split_rows``)."""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from .errors import EmosidError

# A fork pool of two workers costs 20-50 ms to start and stop on a 2-core Xeon.
# The cheapest stage, GMM-alone evaluate, spends about 2 ms per utterance, so a
# second CPU saves it about 1 ms per utterance: a pool pays from 20-50
# utterances on, and the threshold leaves room for a slower start.
MIN_POOL_UTTERANCES = 100

# Waking a helper thread on another vCPU and handing the interpreter lock back
# and forth cost 0.1-0.5 ms per split on a 2-core KVM Xeon. Split in two there,
# scoring against 60 tags of 8 mixtures and the 512-point power spectrum lost
# time below about 200 frames and gained from 256 frames on (2.6 s of audio).
MIN_SPLIT_ROWS = 128


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, e.g. under taskset)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _one_blas_thread() -> None:
    """Limit each OpenBLAS loaded in this process to one thread. A pool already
    runs a worker per CPU; BLAS threads on top spin against each other and made
    a 480-utterance train and evaluate 3x slower on 2 CPUs. A GEMM splits its
    output, never its sums, across threads, so the bytes do not change."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_worker_fn = None  # the stage's fn; set in pool workers only, by _install

_threads = None  # split_rows' helper pool, started by its first split
_threads_lock = threading.Lock()


def _install(fn) -> None:
    global _worker_fn
    _worker_fn = fn
    _one_blas_thread()


def _run(i: int):
    return _worker_fn(i)


def _stop_threads() -> None:
    """Stop split_rows' helper threads, after the ranges they hold, so that
    none exists at a fork; the next split starts them again."""
    global _threads
    with _threads_lock:
        pool, _threads = _threads, None
    if pool is not None:
        pool.shutdown(wait=True)


def _forget_threads() -> None:
    """In a forked child, whose helper threads stayed in the parent: drop the
    inherited pool, which would queue ranges that no thread runs, and its
    lock, which another thread may have held at the fork. The child's first
    split starts a pool of its own."""
    global _threads, _threads_lock
    _threads, _threads_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads)


def parallel_map(fn, n: int, utterances: int) -> list:
    """``[fn(i) for i in range(n)]``, spread over the CPUs this process may use.

    The workers are forks of this process: fn and the state it reads are
    inherited, never pickled, and only the results come back by pickle. The
    map runs in-process on one CPU, for one item, without ``fork``, or when
    the stage covers fewer than MIN_POOL_UTTERANCES utterances. Each worker
    does exactly the float operations the parent would, so the results do
    not depend on the CPU count. An exception raised by fn reaches the caller
    with its type and message; a worker that dies is an EmosidError.
    ``split_rows``' helper threads are stopped before the fork.
    """
    workers = min(_usable_cpus(), n)
    if (workers < 2 or utterances < MIN_POOL_UTTERANCES
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(i) for i in range(n)]
    _stop_threads()
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install, initargs=(fn,)) as pool:
            return list(pool.map(_run, range(n), chunksize=max(1, n // (8 * workers))))
    except BrokenProcessPool as exc:
        raise EmosidError(f"a worker process died: {exc}") from exc


def split_rows(fn, n: int) -> None:
    """Run ``fn(a, b)`` over consecutive row ranges that cover ``range(n)``,
    one range per CPU this process may use; fn writes its rows' results.

    The first range runs on the calling thread, the others on helper threads
    of this process, each held to a CPU other than the caller's. The caller
    runs ``fn(0, n)`` alone on one CPU, in a ``parallel_map`` worker (whose
    siblings hold the other CPUs), and when a range would have fewer than
    MIN_SPLIT_ROWS rows. fn must do per-row or elementwise work only, never
    a matrix product over rows, whose kernel blocking and last bits change
    with the row count: then the bytes do not depend on the CPU count. An
    exception raised by fn reaches the caller with its type once every range
    has ended. A forked child starts helpers of its own."""
    global _threads
    parts = 1 if _worker_fn is not None else min(_usable_cpus(), n // MIN_SPLIT_ROWS)
    if parts < 2:
        fn(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    getcpu = _sched_getcpu()
    here = getcpu() if getcpu is not None else -1
    others = [c for c in sorted(os.sched_getaffinity(0)) if c != here] or [None]
    with _threads_lock:  # submit under the lock: _stop_threads waits for these
        if _threads is None:
            _threads = ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="emosid-rows")
        futures = [_threads.submit(_pinned, others[i % len(others)], fn, a, b)
                   for i, (a, b) in enumerate(zip(bounds[1:-1], bounds[2:]))]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


@functools.cache
def _sched_getcpu():
    """libc's sched_getcpu(), or None where libc has none."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu


_pin = threading.local()  # the CPU a helper thread is held to


def _pinned(cpu: int | None, fn, a: int, b: int) -> None:
    """fn(a, b) on a helper thread held to cpu, a CPU the caller is not on
    (None: anywhere). On a 2-vCPU KVM guest an unheld helper, once woken, ran
    on the caller's CPU after the caller's own range in 30 of 30 trials, so a
    split gained nothing; held to the other CPU, the two ranges of 20 exp
    passes over (300, 480) ran side by side, 2.0 ms against 3.8 ms."""
    if cpu is not None and getattr(_pin, "cpu", None) != cpu:
        try:
            os.sched_setaffinity(0, {cpu})
            _pin.cpu = cpu
        except OSError:  # the process's CPU set has changed: run where it may
            _pin.cpu = None
    fn(a, b)
