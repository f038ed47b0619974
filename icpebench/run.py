#!/usr/bin/env python3
"""Run one ICPE benchmark workload in a fresh JVM and print its result.

Usage, from the root of a checkout:

    python3 icpebench/run.py --workload taxi-wide-eps --seed 1 --seconds 15 --trace 0

The benchmark is an sbt build of its own (icpebench/build.sbt) that compiles
the program's sources together with the benchmark code. The first run in a
checkout builds it; later runs reuse the build while no source has changed.
Every file the benchmark writes stays under `.bench_build/` in the checkout.
The last line of standard output is the result, one JSON object.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
OUT = os.path.join(ROOT, ".bench_build", "icpebench")
WORKLOADS = ("taxi", "taxi-wide-eps", "brinkhoff")

# JVM settings of every run: a fixed heap, so heap sizing never differs
# between runs; a metaspace large enough that class loading during set-up
# triggers no full collections; the module opens Spark needs on JDK 17.
HEAP = "3g"
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]
# The JIT compiles a method after a fifth of the usual invocation and loop
# counts. Spark's planning and execution code is large and the set-up is
# short: at the default thresholds a run's timings still fell by a quarter
# over its timed window, so its figures depended on how far the JIT had got.
JIT_SCALING = 0.2
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"icpebench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    roots = [PROGRAM_SOURCES, os.path.join(BENCH_DIR, "src", "main")]
    files = [os.path.join(BENCH_DIR, "build.sbt"),
             os.path.join(BENCH_DIR, "project", "build.properties")]
    for r in roots:
        for d, _, fs in os.walk(r):
            files += [os.path.join(d, f) for f in fs]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt when the sources changed; return the classpath."""
    stamp_file = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as c:
                    return c.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    log = os.path.join(OUT, "build.log")
    with open(log, "w") as lf:
        proc = subprocess.run(
            [sbt, "--batch", "-Dsbt.log.noformat=true", "compile",
             "export Runtime/fullClasspath"],
            cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, stderr=lf,
            stdin=subprocess.DEVNULL, text=True, timeout=800)
    with open(log, "a") as lf:
        lf.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "classes" not in lines[-1]:
        fail(f"build failed, see {log}")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def java_cmd(cp, args, result_file, trace_file):
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else shutil.which("java")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return [
        java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
        "-XX:MetaspaceSize=256m", f"-XX:CompileThresholdScaling={JIT_SCALING}",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dspark.local.dir={os.path.join(tmp, 'spark-local')}",
        "-Dspark.driver.host=127.0.0.1",
        *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS],
        "-cp", cp, "icpebench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", result_file, "--trace-out", trace_file,
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SOURCES, ROOT)}")
    os.makedirs(OUT, exist_ok=True)
    started = time.monotonic()
    cp = build()

    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    result_file = os.path.join(OUT, f"result-{tag}.json")
    trace_file = os.path.join(OUT, f"trace-{tag}.jsonl")
    log = os.path.join(OUT, f"run-{args.workload}-{args.trace}.log")
    budget = RUN_TIMEOUT_S if time.monotonic() - started < 5 else 880 - (time.monotonic() - started)
    with open(log, "w") as lf:
        proc = subprocess.Popen(java_cmd(cp, args, result_file, trace_file), cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=lf, stdin=subprocess.DEVNULL,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=max(budget, 30))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"run exceeded its time limit, see {log}")
    result = None
    if proc.returncode == 0 and os.path.exists(result_file):
        with open(result_file) as f:
            result = f.read().strip()
        os.remove(result_file)
    for line in out.splitlines():
        if line.startswith("[icpebench]"):
            print(line)
    if result is None:
        fail(f"run failed (exit {proc.returncode}), see {log}")
    print(result, flush=True)


if __name__ == "__main__":
    main()
