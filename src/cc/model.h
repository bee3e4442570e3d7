// BBR-flavored bandwidth×min-RTT congestion model (DESIGN.md §13).
//
// The model keeps two path estimates — the windowed-maximum delivered
// bandwidth (btlbw) and the windowed-minimum RTT — and derives everything
// else: the pacing rate is btlbw scaled by a phase gain, the congestion
// window is a multiple of the bandwidth-delay product. Three phases:
//
//   kStartup  — gain 2.885 (doubles the sending rate every round trip)
//               until the bandwidth estimate stops growing;
//   kDrain    — inverse gain until the queue built during startup drains
//               (inflight ≤ BDP);
//   kProbeBw  — a deterministic gain cycle [1.25, 0.75, 1, …] that probes
//               for more bandwidth and then yields the queue it created.
//
// Fabric source-quench signals (§3.1's internet gateway dropping on a full
// outgoing queue) feed the model directly: each quench multiplies a decay
// factor into the pacing rate and ends startup — the gateway told us the
// bottleneck queue is full, no point probing past it.
#pragma once

#include <cstdint>
#include <deque>

#include "cc/sampler.h"
#include "util/time.h"

namespace dash::cc {

enum class Phase : std::uint8_t { kStartup, kDrain, kProbeBw };
const char* phase_name(Phase p);

class BandwidthModel {
 public:
  /// `initial_bw_Bps` is the bandwidth estimate before the first sample;
  /// the enforcer seeds it from the RMS contract (capacity over its §4.4
  /// rate period). The default is 1 Mbit/s.
  BandwidthModel();
  explicit BandwidthModel(double initial_bw_Bps);

  /// Feeds one delivery-rate sample (from DeliveryRateSampler::on_ack).
  /// `delivered_total` is the sampler's cumulative delivered count and
  /// `inflight_bytes` the enforcer's current outstanding total.
  void on_sample(const DeliveryRateSampler::Sample& s,
                 std::uint64_t delivered_total, std::uint64_t inflight_bytes,
                 Time now);

  /// Fabric source-quench: cut the pacing rate and stop startup probing.
  void on_quench(Time now);

  /// Current pacing rate in bytes/second (gain and quench factor applied).
  double pacing_rate_Bps() const;
  /// Congestion window in bytes (phase gain × BDP).
  std::uint64_t cwnd_bytes() const;

  double btlbw_Bps() const;
  Time min_rtt() const;
  Phase phase() const { return phase_; }
  std::uint64_t rounds() const { return round_; }
  std::uint64_t quenches() const { return quenches_; }
  double quench_factor() const { return quench_factor_; }

 private:
  double gain() const;
  void advance_round(std::uint64_t delivered_total);
  void check_full_bw();

  double initial_bw_Bps_;
  Phase phase_ = Phase::kStartup;

  // Windowed-max bandwidth filter, keyed by round: descending bw.
  struct BwSample {
    std::uint64_t round;
    double bw_Bps;
  };
  std::deque<BwSample> bw_window_;
  MinRttFilter min_rtt_;
  Time now_ = 0;  ///< last sample time (for min-RTT reads)

  std::uint64_t round_ = 0;
  std::uint64_t next_round_delivered_ = 0;
  bool round_advanced_ = false;  ///< a round boundary passed this sample

  double full_bw_ = 0.0;
  int full_bw_count_ = 0;

  std::size_t cycle_idx_ = 0;
  Time cycle_start_ = -1;

  std::uint64_t quenches_ = 0;
  double quench_factor_ = 1.0;
  Time last_quench_ = -1;
};

}  // namespace dash::cc
