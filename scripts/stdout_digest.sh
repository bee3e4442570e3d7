#!/bin/sh
# Prints one "<binary> <sha256 of its stdout>" line for every deterministic
# binary (the deterministic benches, then the simulated examples, in the
# order scripts/benches.sh lists them), each followed by one
# "<binary>/<file> <sha256>" line for each file that binary wrote (its
# BENCH_*.json; telemetry_report's trace and JSONL export), so trace
# records that stdout never shows are covered too. A
# change that claims to leave every simulated trace bit-identical is checked
# by diffing this script's output on a Release build of the parent and of
# the change:
#
#   scripts/stdout_digest.sh [build-dir] > digest.txt   (default build)
#
# Each binary runs in its own temporary directory, so the files it writes
# land there and not in the caller's tree. A binary that exits non-zero
# prints "FAILED (exit N)" instead of a digest, and the script then exits 1.
set -e
BUILD=$(cd "${1:-build}" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

. "$(dirname "$0")/benches.sh"

failed=0
digest() {  # <binary path> <name>
  mkdir "$WORK/$2"
  status=0
  (cd "$WORK/$2" && "$1" > stdout.txt) || status=$?
  if [ "$status" -ne 0 ]; then
    echo "$2 FAILED (exit $status)"
    failed=1
    return
  fi
  echo "$2 $(sha256sum < "$WORK/$2/stdout.txt" | cut -d' ' -f1)"
  for f in $(cd "$WORK/$2" && find . -type f ! -name stdout.txt | LC_ALL=C sort); do
    echo "$2/${f#./} $(sha256sum < "$WORK/$2/$f" | cut -d' ' -f1)"
  done
}

for b in $DETERMINISTIC_BENCHES; do digest "$BUILD/bench/$b" "$b"; done
for e in $SIM_EXAMPLES; do digest "$BUILD/examples/$e" "$e"; done
exit "$failed"
