"""Fork workers for a stage's independent jobs, one per usable CPU."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import EmosidError

# A fork pool of two workers costs 20-50 ms to start and stop on a 2-core Xeon.
# The cheapest stage, GMM-alone evaluate, spends about 2 ms per utterance, so a
# second CPU saves it about 1 ms per utterance: a pool pays from 20-50
# utterances on, and the threshold leaves room for a slower start.
MIN_POOL_UTTERANCES = 100


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


def _install(fn) -> None:
    global _worker_fn
    _worker_fn = fn
    _one_blas_thread()


def _run(i: int):
    return _worker_fn(i)


def parallel_map(fn, n: int, utterances: int) -> list:
    """``[fn(i) for i in range(n)]``, spread over the CPUs this process may use.

    The workers are forks of this process: fn and the state it reads are
    inherited, never pickled, and only the results come back by pickle. The
    map runs in-process on one CPU, for one item, without ``fork``, or when
    the stage covers fewer than MIN_POOL_UTTERANCES utterances. Each worker
    does exactly the float operations the parent would, so the results do
    not depend on the CPU count. An exception raised by fn reaches the caller
    with its type and message; a worker that dies is an EmosidError.
    """
    workers = min(_usable_cpus(), n)
    if (workers < 2 or utterances < MIN_POOL_UTTERANCES
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(i) for i in range(n)]
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install, initargs=(fn,)) as pool:
            return list(pool.map(_run, range(n), chunksize=max(1, n // (8 * workers))))
    except BrokenProcessPool as exc:
        raise EmosidError(f"a worker process died: {exc}") from exc
