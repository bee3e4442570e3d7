#!/bin/sh
# Lists the src/ functions that only the tests run, and those that nothing
# runs: the traffic a simplification would change, measured rather than
# guessed. Run from the repository root.
#
#   scripts/coverage.sh [dir]     (default build-coverage)
#
# Builds the tree with --coverage -O0 into <dir>/tree, and the benchmark
# package perfbench/ out of tree into <dir>/perfbench (no file under
# perfbench/ changes). Runs every bench and example scripts/benches.sh
# lists, plus udp_loopback, and each perfbench workload with --tiny at
# --trace 0 and 1, each in its own temporary directory. Snapshots the
# counters with `gcov --json-format`, runs ctest, snapshots again, and
# prints each src/ function ("<file>:<line> <name>", counts summed over
# every object that emits it) that only the tests ran, then each that
# nothing ran. A function no object emits (an inline function nothing
# calls) is in neither list. A run that fails is reported and makes the
# script exit 1 after the lists; a perfbench workload whose loopback
# sockets are unavailable is reported as skipped. 3.5–7.5 minutes on
# 4 vCPUs.
set -e
DIR=${1:-build-coverage}
mkdir -p "$DIR"
DIR=$(cd "$DIR" && pwd)
ROOT=$(pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

. "$(dirname "$0")/benches.sh"

# One job per CPU: a bare -j is unbounded under Make.
JOBS=$(nproc)
for pkg in tree:. perfbench:perfbench; do
  cmake -B "$DIR/${pkg%%:*}" -S "${pkg#*:}" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null
  cmake --build "$DIR/${pkg%%:*}" -j "$JOBS" > /dev/null
done
find "$DIR" -name '*.gcda' -delete  # counters of an earlier run

failed=0
run() {  # <name> <binary> [args...]
  name=$1
  shift
  mkdir "$WORK/$name"
  status=0
  (cd "$WORK/$name" && "$@" > out.txt 2>&1) || status=$?
  case $status in
    0) ;;
    3) echo "$name skipped (loopback sockets unavailable)" ;;
    *) echo "$name FAILED (exit $status)"; failed=1 ;;
  esac
}
for b in $DETERMINISTIC_BENCHES $WALLCLOCK_BENCHES; do run "$b" "$DIR/tree/bench/$b"; done
for e in $SIM_EXAMPLES udp_loopback; do run "$e" "$DIR/tree/examples/$e"; done
for w in udp_bulk udp_rpc sim_lan; do
  for t in 0 1; do
    run "$w-trace$t" "$DIR/perfbench/dashbench" --workload "$w" --seed 1 --seconds 1 \
      --trace "$t" --tiny --out-dir "$WORK/$w-trace$t"
  done
done

snapshot() {  # <out file>: gcov's JSON for every object, run or not
  for d in $(find "$DIR" -name '*.gcno' -exec dirname {} \; | sort -u); do
    (cd "$d" && gcov --json-format --stdout ./*.gcno 2> /dev/null)
  done > "$1"
}
snapshot "$WORK/runs.json"
ctest --test-dir "$DIR/tree" -j "$JOBS" > "$WORK/ctest.txt" 2>&1 ||
  { echo "ctest FAILED (see below)"; tail -20 "$WORK/ctest.txt"; failed=1; }
snapshot "$WORK/all.json"

python3 - "$ROOT/src/" "$WORK/runs.json" "$WORK/all.json" <<'EOF'
import json
import os
import sys

src, runs_path, all_path = sys.argv[1:]


def counts(path):
    """(file under src/, line, name) -> execution count, summed over objects."""
    out = {}
    text = open(path).read()
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        doc, pos = decoder.raw_decode(text, pos)
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            name = os.path.normpath(os.path.join(cwd, f["file"]))
            if not name.startswith(src):
                continue
            for fn in f["functions"]:
                key = (name[len(src):], fn["start_line"], fn["demangled_name"])
                out[key] = out.get(key, 0) + fn["execution_count"]


runs = counts(runs_path)
every = counts(all_path)
for title, keys in (
        ("only tests run", [k for k, n in every.items() if n > 0 and runs.get(k, 0) == 0]),
        ("nothing runs", [k for k, n in every.items() if n == 0])):
    print("== src/ functions %s: %d" % (title, len(keys)))
    for file, line, name in sorted(keys):
        print("%s:%d %s" % (file, line, name))
EOF
exit "$failed"
