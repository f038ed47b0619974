#!/usr/bin/env python3
"""Compare the exhibit tables of two bench runs, ignoring their timings.

Usage:

    python3 tools/compare_tables.py PARENT_DIR CHANGE_DIR

Each directory holds the `bench_results/*.tsv` of one `sbt "bench/test"` run
(pass the `bench_results` directory itself). For each of the seven tables the
headers must be equal, the rows must carry the same keys in the same order
(figure, dataset, param, method; the dataset alone in Table 2), and every cell
outside `latency_ms` and `throughput_tps` must be equal. Timing columns are
skipped because they differ from run to run. Every difference is printed; the
exit status is 1 if there is any, else 0.
"""
import sys
from pathlib import Path

TABLES = (
    "table2_datasets",
    "fig10_clustering_vs_eps",
    "fig11_clustering_vs_lg",
    "fig12_detection_vs_or",
    "fig13_detection_vs_eps",
    "fig14_detection_vs_n",
    "fig15_enumeration_constraints",
)
TIMINGS = {"latency_ms", "throughput_tps"}


def read(path: Path):
    lines = path.read_text().strip("\n").split("\n")
    rows = [l.split("\t") for l in lines]
    return rows[0], rows[1:]


def key_width(header):
    """Leading key columns: four in the figure tables, the dataset in Table 2."""
    return 4 if header and header[0] == "figure" else 1


def compare(name: str, parent: Path, change: Path):
    """Differences between one table's two runs, as printable lines."""
    files = [d / f"{name}.tsv" for d in (parent, change)]
    missing = [str(f) for f in files if not f.exists()]
    if missing:
        return [f"{name}: missing {', '.join(missing)}"]
    (h1, rows1), (h2, rows2) = read(files[0]), read(files[1])
    if h1 != h2:
        return [f"{name}: header {h1} != {h2}"]
    k = key_width(h1)
    keys1, keys2 = [r[:k] for r in rows1], [r[:k] for r in rows2]
    if keys1 != keys2:
        out = [f"{name}: row {i + 1} key {'/'.join(a)} != {'/'.join(b)}"
               for i, (a, b) in enumerate(zip(keys1, keys2)) if a != b]
        if len(keys1) != len(keys2):
            out.append(f"{name}: {len(keys1)} vs {len(keys2)} rows")
        return out
    out = []
    for r1, r2 in zip(rows1, rows2):
        for col, a, b in zip(h1[k:], r1[k:], r2[k:]):
            if col not in TIMINGS and a != b:
                out.append(f"{name}: {'/'.join(r1[:k])} {col}: {a} != {b}")
        if len(r1) != len(r2):
            out.append(f"{name}: {'/'.join(r1[:k])}: {len(r1)} vs {len(r2)} cells")
    return out


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: compare_tables.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = Path(sys.argv[1]), Path(sys.argv[2])
    diffs = [d for name in TABLES for d in compare(name, parent, change)]
    for d in diffs:
        print(d)
    print(f"{len(TABLES)} tables compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
