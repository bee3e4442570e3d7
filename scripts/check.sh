#!/bin/sh
# Builds the tree with a sanitizer and runs the test suite under it, so the
# adversarial fault suites exercise every error path sanitized, then runs
# every deterministic bench and simulated example under it too, through
# scripts/stdout_digest.sh (which fails if any of them exits non-zero, as
# a leak or a UBSan report makes it). Run from the repository root.
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
# One job per CPU: a bare -j is unbounded under Make and can exhaust
# memory on a small machine.
JOBS=$(nproc)
cmake --build "$BUILD" -j "$JOBS"
if [ -n "$3" ]; then
  ctest --test-dir "$BUILD" --output-on-failure -R "$3" -j "$JOBS"
else
  ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"
fi
scripts/stdout_digest.sh "$BUILD"
