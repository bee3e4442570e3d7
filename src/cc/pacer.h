// Send pacing at the model rate (DESIGN.md §13).
//
// Instead of bursting a full window into the fabric the moment capacity
// allows (which is exactly what overruns the internet gateway's outgoing
// queue in §3.1), the pacer releases sends on a schedule derived from the
// congestion model's rate. The pacer only keeps the schedule: a blocked
// sender arms its own wake-up timer for next_allowed().
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/simulator.h"
#include "util/time.h"

namespace dash::cc {

class Pacer {
 public:
  explicit Pacer(sim::Simulator& sim) : sim_(sim) {}

  /// Rate 0 disables pacing (every send passes immediately).
  void set_rate(double bytes_per_sec) { rate_Bps_ = bytes_per_sec; }
  double rate() const { return rate_Bps_; }

  /// Bytes a sender may burst back-to-back before pacing engages; the
  /// schedule catches up at most this much after an idle period.
  void set_burst(std::size_t bytes) { burst_bytes_ = bytes; }

  bool can_send(std::size_t) const {
    return rate_Bps_ <= 0.0 || next_send_ <= sim_.now();
  }

  /// Charges `n` bytes against the schedule: the next release moves
  /// n/rate into the future, measured from the current schedule position
  /// (clamped so idle time accrues at most `burst` worth of credit).
  void note_sent(std::size_t n) {
    if (rate_Bps_ <= 0.0) return;
    const Time now = sim_.now();
    const Time floor = now - interval(burst_bytes_);
    next_send_ = std::max(next_send_, floor) + interval(n);
  }

  Time next_allowed(std::size_t) const {
    if (rate_Bps_ <= 0.0) return sim_.now();
    return std::max(next_send_, sim_.now());
  }

 private:
  Time interval(std::size_t bytes) const {
    return static_cast<Time>(static_cast<double>(bytes) / rate_Bps_ * 1e9);
  }

  sim::Simulator& sim_;
  double rate_Bps_ = 0.0;
  std::size_t burst_bytes_ = 0;
  Time next_send_ = 0;
};

}  // namespace dash::cc
