"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of run records (the *.json files run.py
writes to .bench_results/, spans files excluded) or single record files.
For each workload it prints the end-to-end metrics with the bound from
BENCHMARK.json, the workload's own named metrics, and the per-layer
metrics of the traced runs. Timings are compared as medians over the
runs; counts are compared as totals over the seeds both sets ran, since
a count repeats exactly for a seed and differs between seeds.

Verdicts on end-to-end metrics: "worse" when the new median is worse
than the base median by more than the bound, "unresolved" when the base
runs themselves spread wider than the bound, otherwise "ok". The exit
code is 1 when any metric is "worse".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> list:
    files = [path] if path.is_file() else sorted(
        p for p in path.glob("*.json") if not p.name.endswith(".spans.json"))
    records = []
    for f in files:
        rec = json.loads(f.read_text())
        if "workload" in rec and "result" in rec:
            records.append(rec)
    return records


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def relative_worsening(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative = better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _series(records, key):
    out = {}
    for rec in records:
        metrics = rec["result"]["metrics"] if key == "metrics" else rec.get(key, {})
        for name, m in metrics.items():
            out.setdefault(name, {"unit": m["unit"], "by_seed": {}})
            out[name]["by_seed"].setdefault(rec["seed"], []).append(m["value"])
    return out


def _median_row(name, unit, base_vals, new_vals, better=None, bound=None):
    b, n = statistics.median(base_vals), statistics.median(new_vals)
    row = [name, unit, f"{b:.6g}", f"{n:.6g}", f"n={len(base_vals)}/{len(new_vals)}"]
    if better is None:
        delta = (n - b) / abs(b) if b else 0.0
        return row + [f"{100 * delta:+.2f}%", "", ""], False
    worse = relative_worsening(b, n, better)
    base_spread = spread(base_vals)
    if worse > bound:
        verdict = "worse"
    elif base_spread > bound:
        all_better = all(relative_worsening(max(base_vals) if better == "higher"
                                            else min(base_vals), v, better) < 0
                         for v in new_vals)
        verdict = "ok (all runs better)" if all_better else "unresolved"
    else:
        verdict = "ok"
    return row + [f"{100 * worse:.2f}% worse" if worse > 0 else f"{100 * -worse:.2f}% better",
                  f"bound {100 * bound:.0f}%, base spread {100 * base_spread:.1f}%",
                  verdict], verdict == "worse"


def _count_row(name, unit, base_by_seed, new_by_seed):
    seeds = sorted(set(base_by_seed) & set(new_by_seed))
    if not seeds:
        return None
    b = sum(base_by_seed[s][0] for s in seeds)
    n = sum(new_by_seed[s][0] for s in seeds)
    same = all(base_by_seed[s][0] == new_by_seed[s][0] for s in seeds)
    return [name, unit, f"{b:.10g}", f"{n:.10g}", f"seeds={len(seeds)}",
            "same on every seed" if same else f"{n - b:+.10g}", "", ""]


def compare(base_records, new_records, spec) -> tuple[list, bool]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, any_worse = [], False
    workloads = sorted({r["workload"] for r in base_records} & {r["workload"] for r in new_records})
    for wl in workloads:
        for trace in (0, 1):
            base = [r for r in base_records if r["workload"] == wl and r["trace"] == trace]
            new = [r for r in new_records if r["workload"] == wl and r["trace"] == trace]
            if not base or not new:
                continue
            lines.append(f"== {wl} ({'per-layer, traced' if trace else 'end to end'}) ==")
            for key in ("metrics",) if trace else ("metrics", "named"):
                bs, ns = _series(base, key), _series(new, key)
                for name in bs:
                    if name not in ns:
                        lines.append(f"  {name}: missing in NEW")
                        continue
                    unit = bs[name]["unit"]
                    if unit == "count":
                        row = _count_row(name, unit, bs[name]["by_seed"], ns[name]["by_seed"])
                        if row:
                            lines.append("  " + " | ".join(row).rstrip(" |"))
                        continue
                    b_vals = [v for vs in bs[name]["by_seed"].values() for v in vs]
                    n_vals = [v for vs in ns[name]["by_seed"].values() for v in vs]
                    spec_m = None if trace else bounds.get(name)
                    row, worse = _median_row(
                        name, unit, b_vals, n_vals,
                        spec_m["better"] if spec_m else None, spec_m["bound"] if spec_m else None)
                    any_worse |= worse
                    lines.append("  " + " | ".join(row).rstrip(" |"))
    return lines, any_worse


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, any_worse = compare(load_records(args.base), load_records(args.new), spec)
    print("\n".join(lines) if lines else "no workload in common")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
