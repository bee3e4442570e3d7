// Scenario drivers for the internet-scale topologies (DESIGN.md §15).
//
// These push raw packets through an InternetTopology — no ST/RMS stacks —
// which is what lets the routing benches and tests load thousands of
// routers without per-host protocol state. Both drivers are deterministic
// given (topology, config): the flash crowd folds deliveries into an
// XOR-commutative trace hash so identical event histories are checkable
// byte-for-byte, and the regional failure scheduler injects the same
// correlated trunk flaps at the same simulated instants every run.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/topology.h"

namespace dash::workload {

/// Flash crowd: many sources pace 512-byte packets at one (or a few) target
/// hosts, phase-staggered per source so transmissions interleave rather
/// than synchronize. The canonical stress for ECMP spread and drop accounting.
struct FlashCrowdConfig {
  int sources = 64;          ///< first N topology hosts (target excluded)
  int targets = 1;           ///< last M topology hosts receive the crowd
  Time interval = msec(1);   ///< per-source send period
  Time duration = msec(200);
  std::uint64_t seed = 7;    ///< phase stagger + stream ids
};

class FlashCrowd {
 public:
  FlashCrowd(sim::Simulator& sim, InternetTopology& topo,
             FlashCrowdConfig config = {});

  /// Schedules every source; call once before running the simulator.
  void start();

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  /// XOR-folded (time, src, size) over every delivery — equal hashes mean
  /// equal simulated histories (order-insensitive across same-time
  /// deliveries to independent targets).
  std::uint64_t trace_hash() const { return trace_; }

 private:
  void send_one(int source, net::HostId target, std::uint64_t stream);

  sim::Simulator& sim_;
  InternetTopology& topo_;
  FlashCrowdConfig config_;
  Time stop_at_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t trace_ = 0;
};

/// Correlated regional failure: at `down_at` every WAN uplink of `region`
/// goes down at once (one routing repair per trunk, back to back); at
/// `up_at` they all return. Exercises burst repair cost and convergence.
struct RegionalFailureConfig {
  std::uint32_t region = 0;
  Time down_at = msec(50);
  Time up_at = msec(120);  ///< 0 = stays down
};

class RegionalFailure {
 public:
  RegionalFailure(sim::Simulator& sim, InternetTopology& topo,
                  RegionalFailureConfig config = {});

  /// Schedules the flap events; call once before running the simulator.
  void start();

  /// The uplinks the scenario takes down (fixed at construction).
  const std::vector<std::pair<InternetTopology::RouterId,
                              InternetTopology::RouterId>>&
  uplinks() const {
    return uplinks_;
  }

 private:
  sim::Simulator& sim_;
  InternetTopology& topo_;
  RegionalFailureConfig config_;
  std::vector<std::pair<InternetTopology::RouterId, InternetTopology::RouterId>>
      uplinks_;
};

}  // namespace dash::workload
