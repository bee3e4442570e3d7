# The one list of benches and examples the scripts run. Sourced (not run)
# by scripts/regenerate.sh, scripts/stdout_digest.sh and CI's bench-smoke
# job:
#
#   . "$(dirname "$0")/benches.sh"
#
# DETERMINISTIC_BENCHES print the same stdout and write the same files on
# every run, so stdout_digest.sh hashes them; keep their order, so digests
# of two builds diff line by line. WALLCLOCK_BENCHES read the wall clock
# or real sockets: regenerate.sh runs them, stdout_digest.sh does not.
# SIM_EXAMPLES are the examples that run wholly in simulation (udp_loopback
# uses real sockets, so it is left out). CI gates two lists, each bench
# with `--check bench/baselines/<id>_current.txt <tolerance %>`, where <id>
# is the name's second field (bench_c8_congestion -> c8), and fails the job
# when a baseline is missed. EXACT_GATED_BENCHES run wholly in simulation,
# so they are checked at tolerance 0: a deterministic metric that drifts
# fails (each keeps its gate's small absolute slack). GATED_BENCHES count
# allocations, which depend on the toolchain, or run real sockets, so they
# are checked at $GATE_TOLERANCE.
DETERMINISTIC_BENCHES="bench_f1_layering bench_f2_architecture bench_f3_rms_levels
bench_f4_multiplexing bench_f5_flow_control bench_c1_bandwidth_bound
bench_c2_deadline_scheduling bench_c3_security_elision bench_c4_rms_caching
bench_c5_fragmentation bench_c6_admission bench_c7_rkom bench_c8_congestion
bench_c11_failover bench_a1_ablations"
WALLCLOCK_BENCHES="bench_c9_datapath bench_c10_event_engine bench_c15_udp"
SIM_EXAMPLES="quickstart voice_conference bulk_transfer window_system rpc_service
dashsim video_phone telemetry_report"
EXACT_GATED_BENCHES="bench_c7_rkom bench_c8_congestion bench_c11_failover"
GATED_BENCHES="bench_c9_datapath bench_c10_event_engine bench_c15_udp"
GATE_TOLERANCE=20
