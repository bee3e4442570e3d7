#!/bin/sh
# Regenerates every experiment in DESIGN.md's per-experiment index and the
# test transcript, writing bench_output.txt and test_output.txt at the
# repository root. Run from the repository root after building.
set -e
BUILD=${1:-build}
. "$(dirname "$0")/benches.sh"

cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

: > bench_output.txt
for b in $DETERMINISTIC_BENCHES $WALLCLOCK_BENCHES; do
  "$BUILD/bench/$b" 2>&1 | tee -a bench_output.txt
done
"$BUILD/bench/bench_micro" --benchmark_min_time=0.05 2>&1 | tee -a bench_output.txt
