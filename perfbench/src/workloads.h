// The benchmark's workloads and layer microbenchmarks.
#pragma once

#include "common.h"

namespace perfbench {

/// Hosts on sim_lan's Ethernet segment.
inline constexpr int kLanHosts = 45;

/// Reliable stream over UDP loopback: closed loop of 4 KB writes.
void run_udp_bulk(const Options& o, Report& r);

/// RKOM echo calls over UDP loopback: open loop at a fixed rate, plus a
/// stepped ramp for the highest rate that meets the latency limit (traced
/// run only).
void run_udp_rpc(const Options& o, Report& r);

/// Simulated 100 Mb/s Ethernet LAN: voice, bulk and RKOM mix over a fixed
/// simulated duration, repeated with the same seed.
void run_sim_lan(const Options& o, Report& r);

/// Timed direct calls: UDP codec, CRC-32, Ethernet frame send + drain.
void run_micro(const Options& o, Report& r);

}  // namespace perfbench
