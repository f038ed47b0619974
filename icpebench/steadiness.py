#!/usr/bin/env python3
"""Steadiness report: run every workload of BENCHMARK.json several times,
untraced, and print, for each end-to-end metric, the median, the quartiles
and the spread (quartile distance over the median) across runs, against its
bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 icpebench/steadiness.py --runs 10 [--compare RAW.json]

Each run is a fresh JVM started by run.py with its own seed (first seed, +1,
...) and BENCHMARK.json's run_seconds, and the workload order alternates
from round to round, so drift on the machine and JIT differences between
JVMs both show up as run-to-run spread.
The raw results go to .bench_build/icpebench/steadiness-<time>.json. With
--compare, the medians are also set against those of an earlier raw result
file: the shift of each median (worse direction), as a share of the earlier
one, next to the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
from run import OUT  # noqa: E402


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: FAILED (exit {proc.returncode})", flush=True)
        return None, wall
    return json.loads(lines[-1]), wall


def summarize(results):
    """Per workload and metric: median, q1, q3, spread."""
    out = {}
    for w, rs in results.items():
        metrics = sorted({m for r in rs for m in r["metrics"]})
        out[w] = {}
        for m in metrics:
            vals = [r["metrics"][m]["value"] for r in rs if m in r["metrics"]]
            unit = next(r["metrics"][m]["unit"] for r in rs if m in r["metrics"])
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            out[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": unit, "n": len(vals)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", help="raw result file of an earlier set")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["summary"]

    results = {w: [] for w in workloads}
    failed_share = {w: set() for w in workloads}
    walls = []
    for i in range(args.runs):
        seed = args.first_seed + i
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r, wall = run_once(w, seed, seconds)
            walls.append(wall)
            if r is None:
                continue
            results[w].append(r)
            failed_share[w].add(r["failed"] / r["attempted"])
            print(f"  {w} seed {seed}: {wall:.0f} s, correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)

    summary = summarize({w: rs for w, rs in results.items() if rs})
    print(f"\n{len(walls)} runs, {sum(walls):.0f} s in all, {max(walls):.0f} s the longest")
    for w, ms in summary.items():
        print(f"\n{w}  (failed share per run: {sorted(failed_share[w])})")
        print(f"  {'metric':24s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
              f"{'shift':>7s} {'bound':>6s}")
        for m, s in ms.items():
            shift = ""
            if earlier and m in earlier.get(w, {}):
                # Every end-to-end metric is lower-is-better.
                shift = f"{s['median'] / earlier[w][m]['median'] - 1:7.3f}"
            print(f"  {m:24s} {s['median']:10.3f} {s['q1']:10.3f} {s['q3']:10.3f} "
                  f"{s['spread']:7.3f} {shift:>7s} {bounds.get(m, float('nan')):6.2f}  "
                  f"{s['unit']} (n={s['n']})")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steadiness-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"args": vars(args), "seconds": seconds, "results": results, "summary": summary}, f, indent=1)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
