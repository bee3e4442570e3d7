// Per-(peer, network) probe health state (DESIGN.md §11).
#pragma once

#include <cstdint>

#include "util/time.h"

namespace dash::path {

/// Everything the path manager knows about one (peer, network) direction,
/// fed by the ping/pong probe loop and fabric failure notifications. One
/// record per pair, created lazily on the pair's first probe.
struct ProbeHealth {
  std::uint64_t next_seq = 1;
  std::uint64_t outstanding_seq = 0;  ///< 0 = no probe in flight
  Time outstanding_sent_at = -1;

  /// Smoothed round-trip time; negative until the first pong arrives.
  double ewma_rtt_ns = -1.0;
  int consecutive_timeouts = 0;

  std::uint64_t probes_sent = 0;
  std::uint64_t pongs_received = 0;
  Time last_failure = -1;  ///< fabric-level failure notification
};

}  // namespace dash::path
