"""Compare a change's CPU fan-out with a parent checkout.

    python3 scripts/parallel_bench.py identity --parent P --change C --out BENCH.json
    python3 scripts/parallel_bench.py timing --parent P --change C --out BENCH.json
    python3 scripts/parallel_bench.py tier1 --parent P --change C --out BENCH.json

P and C are emosid checkouts (each with src/ and perfbench/). Each
subcommand merges its own section into the --out JSON file.

- identity: with the CLI in P, in C and in C under ``taskset -c 0``,
  synthesize the acceptance corpus (seed S, separation 0.35) and perfbench's
  16 kHz extract corpus, and compare the sha256 of every WAV and manifest;
  then train, evaluate (with --distort), extract and identify 8 test WAVs
  on one acceptance corpus, and compare every model file, report,
  evaluate_models record, .feat file and identify JSON; then the same in P
  and C with BLAS at its default thread count.
- timing: alternating pairs of perfbench ``protocol`` runs (scaled and raw
  audio_s_per_s and setup_s), each followed by one protocol pass in a fresh
  process that reports its synthesis and work wall time and the CPU seconds
  and peak RSS of the process and of its children (resource.getrusage);
  then a few pairs of the other workloads.
- extract: whole ``emosid extract`` processes on perfbench's 16 kHz extract
  corpus (480 utterances at seed S), alternating P and C, each in a fresh
  process with a fresh output directory: wall time and the CPU seconds of
  the process and its workers, with BLAS pinned (the fan-out alone) and at
  its default (as a user runs it); then alternating pairs of perfbench
  ``extract`` runs.
- tier1: the tier-1 test suite of P and of C, back to back.

BLAS is pinned to one thread, as perfbench pins it, except where said.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# one evaluate_models record set in the checkout on PYTHONPATH:
# argv = manifest, model dir, seed, output file
RECORDS = """
import dataclasses, json, sys
from emosid import cli, corpus, pipeline
manifest, models, seed, out = sys.argv[1:]
m = corpus.load_manifest(manifest)
args = cli.build_parser().parse_args(["evaluate", "--manifest", manifest,
    "--tags", models + "/tags.sidtags", "--dnn", models + "/cascade.siddnn",
    "--dnn-only", models + "/dnn_only.siddnn"])
trained = cli._load_models(args)
cfg = pipeline.PipelineConfig(seed=int(seed))
records = [dataclasses.asdict(r) for distort in (False, True)
           for r in pipeline.evaluate_models(m, trained, cfg, distort=distort)]
open(out, "w").write(json.dumps(records))
"""

# one pass of perfbench's protocol work in the checkout on PYTHONPATH:
# argv = seed, scratch dir; prints one JSON object
ONE_PASS = """
import json, resource, sys, time, wave
from emosid import corpus, pipeline
seed, scratch = int(sys.argv[1]), sys.argv[2]
t0 = time.perf_counter()
m = corpus.generate_synthetic(corpus.SynthSpec(seed=seed, num_speakers=10, repetitions=1,
                                               separation=0.35), scratch)
synth_s = time.perf_counter() - t0
def seconds(e):
    with wave.open(e.path, "rb") as fh:
        return fh.getnframes() / fh.getframerate()
audio_s = (sum(map(seconds, m.split_entries("train")))
           + 2.0 * sum(map(seconds, m.split_entries("test"))))
cfg = pipeline.PipelineConfig(seed=seed)
def cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime
c0, k0, t0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN), time.perf_counter()
models = pipeline.train_models(m, cfg)
records = pipeline.evaluate_models(m, models, cfg)
records += pipeline.evaluate_models(m, models, cfg, modes=("cascade",), distort=True)
pipeline.evaluation_report(records, cfg)
wall = time.perf_counter() - t0
print(json.dumps({
    "synth_s": synth_s, "work_s": wall, "audio_s_per_s": audio_s / wall,
    "cpu_self_s": cpu(resource.RUSAGE_SELF) - c0,
    "cpu_children_s": cpu(resource.RUSAGE_CHILDREN) - k0,
    "self_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "children_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}))
"""


def env_for(checkout: Path, pin_blas=True) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    return {**env, **(BLAS_ENV if pin_blas else {}), "PYTHONPATH": str(checkout / "src")}


def python(checkout: Path, argv, prefix=(), capture=True, pin_blas=True) -> str:
    proc = subprocess.run([*prefix, sys.executable, *argv], env=env_for(checkout, pin_blas),
                          cwd=checkout, check=True, text=True,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    return proc.stdout if capture else ""


def children_cpu_s() -> float:
    """CPU seconds of every child process reaped so far, and of their children."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stats(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": len(values)}


def merge(out: Path, section: str, value) -> None:
    data = json.loads(out.read_text()) if out.exists() else {}
    data[section] = value
    out.write_text(json.dumps(data, indent=1) + "\n")


def tree_digests(out: Path) -> dict:
    """sha256 of every file under out, the directory name taken out of text files
    (manifests name their WAVs by absolute path)."""
    return {str(p.relative_to(out)): hashlib.sha256(
        p.read_bytes().replace(str(out).encode(), b"DIR")).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()}


def equal_digests(digests: dict) -> bool:
    first = next(iter(digests.values()))
    return all(d == first for d in digests.values())


def corpora(args, seed: int, work: Path) -> dict:
    """The acceptance and the 16 kHz extract corpus, synthesized in P, in C and
    in C on one CPU."""
    kinds = {"acceptance": ["--separation", "0.35"],
             "extract_16k": ["--separation", "0.35", "--rate", "16000", "--repetitions", "1"]}
    sides = [("parent", args.parent, ()), ("change", args.change, ()),
             ("change_taskset_c0", args.change, ("taskset", "-c", "0"))]
    result = {}
    for kind, flags in kinds.items():
        digests, wall = {}, {}
        for name, checkout, prefix in sides:
            out = work / f"{kind}-{name}"
            t0 = time.perf_counter()
            python(checkout, ["-m", "emosid.cli", "synth", "--out", str(out), "--seed",
                              str(seed), *flags], prefix, False)
            wall[name] = round(time.perf_counter() - t0, 2)
            digests[name] = tree_digests(out)
            if kind != "acceptance" or name != "change":
                shutil.rmtree(out)
        result[kind] = {"equal": equal_digests(digests), "files": len(digests["parent"]),
                        "manifest_sha256": digests["parent"]["manifest.jsonl"],
                        "synth_wall_s": wall}
    return result


def identity(args) -> dict:
    result = {"corpus": "acceptance corpus: 1440 utterances, separation 0.35; "
                        "extract corpus: 480 utterances at 16 kHz"}
    sides = [("parent", args.parent, (), True), ("change", args.change, (), True),
             ("change_taskset_c0", args.change, ("taskset", "-c", "0"), True),
             ("parent_blas_default", args.parent, (), False),
             ("change_blas_default", args.change, (), False)]
    for seed in args.seeds:
        work = Path(tempfile.mkdtemp(prefix=f"identity-{seed}-", dir=args.scratch))
        try:
            synth = corpora(args, seed, work)
            corpus_dir = work / "acceptance-change"
            manifest = str(corpus_dir / "manifest.jsonl")
            requests = sorted(corpus_dir.glob("spk0[0-7]_neutral_s4_r0.wav"))
            digests = {}
            for name, checkout, prefix, pin in sides:
                out = work / name
                t0 = time.perf_counter()
                python(checkout, ["-m", "emosid.cli", "train", "--manifest", manifest,
                                  "--out", str(out), "--seed", str(seed)], prefix, False, pin)
                models = ["--tags", str(out / "tags.sidtags"),
                          "--dnn", str(out / "cascade.siddnn")]
                python(checkout, ["-m", "emosid.cli", "evaluate", "--manifest", manifest,
                                  *models, "--dnn-only", str(out / "dnn_only.siddnn"),
                                  "--distort", "--out", str(out / "evaluate_report.json")],
                       prefix, False, pin)
                python(checkout, ["-c", RECORDS, manifest, str(out), str(seed),
                                  str(out / "records.json")], prefix, False, pin)
                python(checkout, ["-m", "emosid.cli", "extract", "--manifest", manifest,
                                  "--out", str(out / "feats")], prefix, False, pin)
                for wav in requests:
                    python(checkout, ["-m", "emosid.cli", "identify", "--wav", str(wav),
                                      *models, "--out", str(out / f"identify-{wav.stem}.json")],
                           prefix, False, pin)
                wall = round(time.perf_counter() - t0, 2)
                digests[name] = {p.name: sha256(p) for p in sorted(out.iterdir())
                                 if p.is_file() and p.name != "train_report.json"}
                # the report names its artifacts by path, which differs per side
                report = json.loads((out / "train_report.json").read_text())["report"]
                digests[name]["train_report.json[report]"] = hashlib.sha256(
                    json.dumps(report, sort_keys=True).encode()).hexdigest()
                digests[name]["feats/*.feat"] = hashlib.sha256(json.dumps(
                    tree_digests(out / "feats")).encode()).hexdigest()
                digests[name]["wall_s"] = wall
                shutil.rmtree(out / "feats")
            files = [k for k in digests["parent"] if k != "wall_s"]
            result[f"seed{seed}"] = {
                "corpora": synth,
                "equal": all(digests[n][k] == digests["parent"][k]
                             for n, *_ in sides for k in files),
                "differ": {n: [k for k in files if digests[n][k] != digests["parent"][k]]
                           for n, *_ in sides[1:]},
                "files": files,
                "identify_requests": [wav.name for wav in requests],
                "sha256": {k: digests["parent"][k] for k in files},
                "wall_s": {n: digests[n]["wall_s"] for n, *_ in sides}}
            print(f"identity seed {seed}: corpora "
                  f"{[v['equal'] for v in synth.values()]}, "
                  f"models {result[f'seed{seed}']['equal']}", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return result


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    lines = python(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]).splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    row = {k: v["value"] for k, v in result["metrics"].items()}
    row["raw_audio_s_per_s"] = record["raw"]["audio_s_per_s"]
    row["work_speed"] = record["raw"]["work_speed"]
    row["raw_setup_s"] = statistics.median(record["raw"]["setup_s"])
    row["setup_speed"] = record["raw"]["setup_speed"]
    return row, record["machine"]


def one_pass(checkout: Path, seed: int, scratch: str) -> dict:
    work = tempfile.mkdtemp(prefix="one-pass-", dir=scratch)
    try:
        return json.loads(python(checkout, ["-c", ONE_PASS, str(seed), work]).splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


# the metrics a change may claim: name -> +1 if higher is better, -1 if lower
CLAIMABLE = {"audio_s_per_s": 1, "raw_audio_s_per_s": 1, "setup_s": -1, "raw_setup_s": -1,
             "synth_s": -1, "wall_s": -1, "cpu_s": -1}


def summarize(rows: dict) -> dict:
    """rows: side -> list of dicts per pair. Medians, quartiles, wins."""
    out = {}
    for metric in rows["parent"][0]:
        p = [r[metric] for r in rows["parent"]]
        c = [r[metric] for r in rows["change"]]
        out[metric] = {"parent": stats(p), "change": stats(c)}
        if metric in CLAIMABLE:
            better = CLAIMABLE[metric]
            out[metric]["change_pct"] = round(
                100.0 * (statistics.median(c) / statistics.median(p) - 1.0), 1)
            out[metric]["wins"] = f"{sum(better * (b - a) > 0 for a, b in zip(p, c))} of {len(p)}"
            out[metric]["median_gain_over_parent_iqr"] = round(
                better * (statistics.median(c) - statistics.median(p))
                / max(stats(p)["q3"] - stats(p)["q1"], 1e-12), 2)
    return out


def timing(args) -> dict:
    result = {"pairs": args.pairs, "seconds": args.seconds}
    plan = [("protocol", seed, args.pairs) for seed in args.seeds]
    plan += [(w, args.seeds[0], args.other_pairs) for w in ("identify_long", "extract")]
    for workload, seed, pairs in plan:
        bench = {"parent": [], "change": []}
        passes = {"parent": [], "change": []}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                row, result["machine"] = perfbench(checkout, workload, seed, args.seconds)
                bench[side].append(row)
                if workload == "protocol":
                    passes[side].append(one_pass(checkout, seed, args.scratch))
            print(f"{workload} seed {seed} pair {pair}: " + " ".join(
                f"{s}={bench[s][-1]['audio_s_per_s']:.1f}/{bench[s][-1]['raw_setup_s']:.2f}s"
                for s in order), flush=True)
        entry = {"perfbench": summarize(bench), "perfbench_runs": bench}
        if workload == "protocol":
            entry["one_pass"] = summarize(passes)
            entry["one_pass_runs"] = passes
        result[f"{workload}/seed{seed}"] = entry
    return result


def extract(args) -> dict:
    seed = args.seeds[0]
    work = Path(tempfile.mkdtemp(prefix="extract-", dir=args.scratch))
    manifest = work / "corpus" / "manifest.jsonl"
    python(args.parent, ["-m", "emosid.cli", "synth", "--out", str(manifest.parent), "--seed",
                         str(seed), "--separation", "0.35", "--rate", "16000",
                         "--repetitions", "1"], capture=False)
    utterances = len(manifest.read_text().splitlines())
    result = {"seed": seed, "utterances": utterances, "pairs": args.pairs}
    for blas, pin in (("blas_pinned", True), ("blas_default", False)):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = work / f"feats-{side}"
                shutil.rmtree(out, ignore_errors=True)
                k0, t0 = children_cpu_s(), time.perf_counter()
                summary = json.loads(python(getattr(args, side), [
                    "-m", "emosid.cli", "extract", "--manifest", str(manifest),
                    "--out", str(out)], pin_blas=pin))
                runs[side].append({"wall_s": round(time.perf_counter() - t0, 3),
                                   "cpu_s": round(children_cpu_s() - k0, 3)})
                if summary["written"] != utterances or summary["failures"]:
                    raise SystemExit(f"{side} extract wrote {summary}")
            print(f"cli extract {blas} pair {pair}: " + " ".join(
                f"{s}={runs[s][-1]['wall_s']:.2f}s" for s in order), flush=True)
        result[f"cli/{blas}"] = {"summary": summarize(runs), "runs": runs}
    shutil.rmtree(work)
    bench = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            row, result["machine"] = perfbench(getattr(args, side), "extract", seed,
                                               args.seconds)
            bench[side].append(row)
        print(f"perfbench extract pair {pair}: " + " ".join(
            f"{s}={bench[s][-1]['raw_audio_s_per_s']:.1f}" for s in order), flush=True)
    result["perfbench"] = {"summary": summarize(bench), "runs": bench}
    return result


def tier1(args) -> dict:
    result = {"command": "python -m pytest -q --continue-on-collection-errors"}
    for name, checkout in (("parent", args.parent), ("change", args.change)):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                              env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                              cwd=checkout, text=True, stdout=subprocess.PIPE)
        summary = proc.stdout.strip().splitlines()[-1]
        result[name] = {"wall_s": round(time.perf_counter() - t0, 1), "summary": summary}
        print(f"tier1 {name}: {summary}", flush=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("command", choices=("identity", "timing", "extract", "tier1"))
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--other-pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--scratch", default=None, help="directory for corpora and models")
    args = p.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    merge(args.out, args.command, {"identity": identity, "timing": timing, "extract": extract,
                                   "tier1": tier1}[args.command](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
