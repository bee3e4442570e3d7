#!/bin/sh
# Regenerates every experiment in DESIGN.md's per-experiment index and the
# test transcript, writing bench_output.txt and test_output.txt at the
# repository root. Run from the repository root after building.
set -e
BUILD=${1:-build}

cmake --build "$BUILD"

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

: > bench_output.txt
for b in \
  bench_f1_layering bench_f2_architecture bench_f3_rms_levels \
  bench_f4_multiplexing bench_f5_flow_control \
  bench_c1_bandwidth_bound bench_c2_deadline_scheduling \
  bench_c3_security_elision bench_c4_rms_caching bench_c5_fragmentation \
  bench_c6_admission bench_c7_rkom bench_c8_congestion \
  bench_c9_datapath bench_c10_event_engine bench_c11_failover \
  bench_c15_udp bench_a1_ablations; do
  "$BUILD/bench/$b" 2>&1 | tee -a bench_output.txt
done
"$BUILD/bench/bench_micro" --benchmark_min_time=0.05 2>&1 | tee -a bench_output.txt
