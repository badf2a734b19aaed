"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload protocol --seed 7 --seconds 20 --trace 0

Run it from the root of an emosid checkout; it imports the package from
src/. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it is the
full record of the run (machine facts, the workload's own named metrics,
the problems found), which is also written to .bench_results/.

BLAS runs single-threaded, so both sides of a comparison use the same
thread count whatever the machine's default. End-to-end times and the
workloads' named times and rates are scaled to reference machine speed
(see speedometer.py); the record keeps the raw values and the speeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_work"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction",
             "audio_s_per_s": "s/s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        # numpy wheels bundle a prefixed OpenBLAS; system builds use the plain name
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def at_reference(value: float, unit: str, speed: float) -> float:
    """A time or rate measured at `speed`, as it would read at speed 1.0."""
    if unit in ("s", "ms"):
        return value * speed
    if unit.endswith("/s"):
        return value / speed
    return value


def run_untraced(wl, args, workdir) -> dict:
    """Time set-up and work, both scaled to reference machine speed."""
    import speedometer

    setup_times = []
    with speedometer.Speedometer() as sp:
        for _ in range(wl.setup_repeats):
            t0 = sp.clock()
            state = wl.setup(args.seed, workdir)
            setup_times.append(sp.clock() - t0)
        setup_speed = sp.speed()
        first = len(sp.samples)
        work = wl.work(state, args.seconds, clock=sp.clock)
        work_speed = sp.speed(first)
    checked = wl.check(state, work)
    raw_named = checked.named
    checked.named = {k: (at_reference(v, u, work_speed), u) for k, (v, u) in raw_named.items()}
    attempted = max(checked.attempted, 1)
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - checked.failed) / attempted,
        "audio_s_per_s": work.audio_s / work.seconds / work_speed,
    }
    return {"metrics": {k: (v, E2E_UNITS[k]) for k, v in metrics.items()},
            "checked": checked, "work": work,
            "raw": {"setup_s": setup_times, "setup_speed": setup_speed,
                    "audio_s_per_s": work.audio_s / work.seconds, "work_speed": work_speed,
                    "named": raw_named, "speed_samples": len(sp.samples),
                    "sampling_s": sp.spent}}


def run_traced(wl, args, workdir, spans_path) -> dict:
    import tracer

    # the same work untraced first: the difference is the tracing overhead
    untraced = wl.work(wl.setup(args.seed, workdir), args.seconds)

    with tracer.Tracer() as tr:
        with tr.phase("bench.setup") as setup_span:
            state = wl.setup(args.seed, workdir)
        with tr.phase("bench.work") as work_span:
            work = wl.work(state, args.seconds, passes=untraced.passes)
    checked = wl.check(state, work)

    calls = tr.calls_by_function()
    silent = tracer.silent_functions(wl.expected, calls)
    absent = list(tr.absent)
    for f in silent:
        print(f"perfbench: {f} recorded no calls on {wl.name}", file=sys.stderr)
    for f in absent:
        print(f"perfbench: {f} is absent; not traced", file=sys.stderr)
    tr.write_spans(spans_path, tr.start[setup_span])

    metrics = {
        "trace.untraced_work_s": (untraced.seconds, "s"),
        "trace.overhead_frac": ((work.seconds - untraced.seconds) / untraced.seconds,
                                "fraction"),
        "trace.spans": (len(tr.start), "count"),
        "trace.absent": (len(absent), "count"),
        "trace.silent": (len(silent), "count"),
        "trace.setup_wall_s": (tr.end[setup_span] - tr.start[setup_span], "s"),
        "trace.work_wall_s": (tr.end[work_span] - tr.start[work_span], "s"),
    }
    metrics.update(tracer.layer_times(tr.summary(setup_span), prefix="setup."))
    metrics.update(tracer.work_metrics(tr, work_span))
    return {"metrics": metrics, "checked": checked, "work": work,
            "absent": absent, "silent": silent, "calls": calls}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emosid" / "__init__.py").is_file():
        print(f"perfbench: no emosid sources at {ROOT / 'src' / 'emosid'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    SCRATCH.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}"
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH)
    try:
        if args.trace:
            out = run_traced(wl, args, workdir, RESULTS / f"{stem}.spans.json")
        else:
            out = run_untraced(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked, work = out["checked"], out["work"]
    correct = checked.failed == 0 and checked.attempted > 0
    result = {
        "correct": correct,
        "attempted": int(checked.attempted),
        "failed": int(checked.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "passes": work.passes, "work_s": work.seconds, "audio_s": work.audio_s,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in checked.named.items()},
        "notes": checked.notes,
        "problems": checked.problems[:20],
        "result": result,
    }
    for key in ("raw", "absent", "silent", "calls"):
        if key in out:
            record[key] = out[key]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in checked.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
