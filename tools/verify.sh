#!/usr/bin/env bash
# Runs the checks of a change, in this order, from the root of the checkout:
#
#   tier-1      ROADMAP.md's tier-1 verify command: `sbt Test/compile`, then
#               every test of the program (`sbt "testOnly *"`);
#   icpebench   the benchmark's own tests (`cd icpebench && sbt test`);
#   bench       the figure suites compile (`sbt bench/Test/compile`).
#
# Together they compile every project the build defines. sbt runs offline.
# The script stops at the first failing step and prints one line per step;
# each step's sbt output goes to a log file under $TMPDIR (default /tmp),
# named in that line. It changes no file in the checkout beyond sbt's own
# build output. Last it prints the main-source line count (`wc -l` over
# src/main/**/*.scala), the number ROADMAP.md's aim 2 tracks.
#
#   tools/verify.sh
set -u
cd "$(dirname "$0")/.."

export COURSIER_MODE=offline
export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g}"
sbt_run() { timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true "$@"; }

tier1() {
  sbt_run Test/compile || return
  SPARK_GRAFT_CPUS="$(env -u OMP_NUM_THREADS nproc)" \
  SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)" \
  SPARK_LOCAL_DIRS=/tmp/spark-local \
    sbt_run "testOnly *"
}
icpebench() { (cd icpebench && sbt_run test); }
bench() { sbt_run bench/Test/compile; }

for step in tier1 icpebench bench; do
  log="$(mktemp "${TMPDIR:-/tmp}/verify-$step-XXXXXX.log")"
  start=$SECONDS
  if "$step" >"$log" 2>&1; then status=ok; else status=FAILED; fi
  tests="$(grep -o 'Tests: succeeded [0-9]*, failed [0-9]*' "$log" | tail -1)"
  printf '%-9s %-6s %4ds  %s%s\n' "$step" "$status" "$((SECONDS - start))" \
    "${tests:+$tests  }" "$log"
  [ "$status" = ok ] || exit 1
done
echo "main sources: $(find src/main -name '*.scala' -exec cat {} + | wc -l) lines"
