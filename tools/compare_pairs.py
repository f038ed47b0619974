#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage:

    python3 tools/compare_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10] [--first-seed N]

PARENT_DIR and CHANGE_DIR are the roots of two checkouts, each with its own
`icpebench/` and `BENCHMARK.json`; the two `BENCHMARK.json` files must be
identical. For pair i (seed N + i) and each workload of `BENCHMARK.json`, both
checkouts run

    python3 icpebench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

with the same seed; the side that runs first alternates from pair to pair, so
drift on the machine falls on both sides alike.

For each workload and end-to-end metric the report gives each side's median
and quartiles, the pairs the change wins (ties count for neither side), the
shift of the change's median in the metric's worse direction as a share of
the parent's median, next to the metric's bound, and a verdict:

    worse       the shift exceeds the bound;
    unresolved  the parent's quartile spread (q3 - q1 over the median) exceeds
                the bound and not every change run beats every parent run;
    better      the change wins at least 9 pairs in 10 and its median is better
                by more than the parent's quartile distance;
    same        otherwise.

The raw results go to `.bench_build/compare_pairs-<time>.json` under the root
of the checkout that holds this script, rewritten after every pair. Nothing in
either checkout's `icpebench/` is touched beyond what run.py builds under
`.bench_build/`. The exit status is 1 if any run failed, was incorrect or
failed an operation, or if any metric is worse than its bound; else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One run.py result as a dict, or None if the run produced none."""
    proc = subprocess.run(
        [sys.executable, os.path.join("icpebench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
    return q1, med, q3


def compare(pairs, metric):
    """Summary of one metric over the pairs where both sides produced it."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
            for p in pairs
            if all(p[s] and name in p[s]["metrics"] for s in SIDES)]
    if not both:
        return None
    par, chg = [b[0] for b in both], [b[1] for b in both]

    def beats(a, b):
        return a < b if lower else a > b

    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(par), quartiles(chg)
    wins = sum(beats(c, p) for p, c in both)
    shift = (cmed / pmed - 1 if lower else 1 - cmed / pmed) if pmed else 0.0
    spread = (pq3 - pq1) / pmed if pmed else 0.0
    if shift > bound:
        verdict = "worse"
    elif spread > bound and not all(beats(c, p) for c in chg for p in par):
        verdict = "unresolved"
    elif wins >= 0.9 * len(both) and abs(cmed - pmed) > pq3 - pq1 and beats(cmed, pmed):
        verdict = "better"
    else:
        verdict = "same"
    return {"n": len(both), "parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
            "wins": wins, "shift": shift, "parent_spread": spread, "bound": bound,
            "verdict": verdict, "unit": metric["unit"]}


def failures(pairs):
    """Printable lines for every missing, incorrect or partly failed run."""
    out = []
    for p in pairs:
        for s in SIDES:
            r = p[s]
            if r is None:
                out.append(f"{p['workload']} seed {p['seed']} {s}: no result")
            elif not r.get("correct") or r.get("failed", 1) != 0:
                out.append(f"{p['workload']} seed {p['seed']} {s}: correct={r.get('correct')} "
                           f"failed={r.get('failed')} of {r.get('attempted')}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    dirs = {"parent": os.path.abspath(args.parent_dir), "change": os.path.abspath(args.change_dir)}
    specs = []
    for s in SIDES:
        with open(os.path.join(dirs[s], "BENCHMARK.json")) as f:
            specs.append(f.read())
    if specs[0] != specs[1]:
        print("compare_pairs: the two checkouts' BENCHMARK.json differ", file=sys.stderr)
        return 2
    bench = json.loads(specs[0])
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    raw = os.path.join(ROOT, ".bench_build", f"compare_pairs-{int(time.time())}.json")
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"workload": w, "seed": seed, "first": order[0]}
            for s in order:
                t0 = time.monotonic()
                pair[s] = run_once(dirs[s], w, seed, seconds)
                r = pair[s]
                state = "no result" if r is None else \
                    f"correct={r['correct']} failed={r['failed']}/{r['attempted']}"
                print(f"  pair {i + 1} {w} seed {seed} {s}: {time.monotonic() - t0:.0f} s, {state}",
                      flush=True)
            pairs.append(pair)
        with open(raw, "w") as f:
            json.dump({"dirs": dirs, "args": vars(args), "pairs": pairs}, f, indent=1)

    bad = failures(pairs)
    worse = []
    for w in workloads:
        wp = [p for p in pairs if p["workload"] == w]
        print(f"\n{w}  ({len(wp)} pairs)")
        print(f"  {'metric':24s} {'parent q1/med/q3':>28s} {'change q1/med/q3':>28s} "
              f"{'wins':>6s} {'shift':>7s} {'bound':>6s} {'p.sprd':>7s}  verdict")
        for m in bench["end_to_end"]:
            c = compare(wp, m)
            if c is None:
                print(f"  {m['name']:24s} no paired results")
                continue
            if c["verdict"] == "worse":
                worse.append(f"{w} {m['name']}")
            par, chg = ("/".join(f"{v:.2f}" for v in c[s]) for s in SIDES)
            print(f"  {m['name']:24s} {par:>28s} {chg:>28s} "
                  f"{c['wins']:>3d}/{c['n']:<2d} {c['shift']:7.3f} {c['bound']:6.2f} "
                  f"{c['parent_spread']:7.3f}  {c['verdict']}")
    for line in bad:
        print(f"FAILED RUN: {line}")
    for line in worse:
        print(f"WORSE THAN BOUND: {line}")
    print(f"\nraw results: {os.path.relpath(raw, ROOT)}")
    return 1 if bad or worse else 0


if __name__ == "__main__":
    sys.exit(main())
