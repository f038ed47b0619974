#!/usr/bin/env python3
"""Compare the result counters of two traced icpebench runs.

Usage:

    python3 tools/compare_counters.py PARENT_OUT CHANGE_OUT

Each file is the saved standard output of
`python3 icpebench/run.py --workload W --seed S --seconds 15 --trace 1`, for
the same workload and seed on both sides. The last JSON line of each file is
the run's result: both must be `correct` with no failed operation, and the
counters below, which count what the pipeline computed rather than how long
it took, must be exactly equal. Every difference is printed; the exit status
is 1 if there is any, else 0.
"""
import json
import sys

COUNTERS = (
    "grid_allocate.replicas_per_point",
    "grid_query.pairs",
    "grid_query.max_cell_objects",
    "grid_sync.dup_pairs",
    "dbscan.clusters",
    "dbscan.clustered_points",
    "partition.rows",
    "partition.lemma3_dropped",
    "fba.emitted",
    "vba.emitted",
    "vba.open_entries_end",
    "vba.cands_retained_end",
    "stream.jobs_per_batch",
    "stream.tasks_per_batch",
    "timesync.held_records_max",
    "spark.shuffle_records_per_snap",
)


def result(path):
    """The run's result: the last JSON line of the file, or None."""
    with open(path) as f:
        lines = [l for l in f if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def compare(parent, change):
    """Differences between the two results, as printable lines."""
    out = []
    for side, r in (("parent", parent), ("change", change)):
        if not r.get("correct") or r.get("failed") != 0:
            out.append(f"{side}: correct={r.get('correct')} failed={r.get('failed')}")
    for name in COUNTERS:
        a, b = (r.get("metrics", {}).get(name, {}).get("value") for r in (parent, change))
        if a is None or b is None:
            out.append(f"{name}: missing (parent {a}, change {b})")
        elif a != b:
            out.append(f"{name}: {a} != {b}")
    return out


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: compare_counters.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    results = [result(p) for p in sys.argv[1:]]
    missing = [p for p, r in zip(sys.argv[1:], results) if r is None]
    if missing:
        print(f"no JSON result line in {', '.join(missing)}")
        return 1
    diffs = compare(*results)
    for d in diffs:
        print(d)
    print(f"{len(COUNTERS)} counters compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
