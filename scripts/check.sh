#!/bin/sh
# Builds the tree with a sanitizer and runs the test suite under it, so the
# adversarial fault suites exercise every error path sanitized, then runs
# the c8 (hostile flood injector) and c11 (failover rebind) benches, which
# are not ctest entries, inside the build directory. Run from the
# repository root.
#
#   scripts/check.sh [build-dir] [sanitizer] [ctest-regex]
#
#   build-dir   default build-sanitize
#   sanitizer   ON/address (ASan+UBSan, default)
#   ctest-regex optional -R filter; default runs everything
set -e
BUILD=${1:-build-sanitize}
SANITIZE=${2:-ON}

cmake -B "$BUILD" -S . -DDASH_SANITIZE="$SANITIZE"
cmake --build "$BUILD" -j
if [ -n "$3" ]; then
  # -R before -j: a bare -j greedily consumes the next token as its value.
  ctest --test-dir "$BUILD" --output-on-failure -R "$3" -j
else
  ctest --test-dir "$BUILD" --output-on-failure -j
fi
(cd "$BUILD" && bench/bench_c8_congestion && bench/bench_c11_failover)
