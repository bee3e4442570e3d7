#include "cc/model.h"

#include <algorithm>
#include <array>

namespace dash::cc {
namespace {

// Sliding windows for the two path estimates. Bandwidth is windowed in
// *rounds* (min-RTT-sized delivery epochs), RTT in wall time.
constexpr std::uint64_t kBwWindowRounds = 10;
constexpr Time kMinRttWindow = sec(10);

// Phase gains (see the header comment).
constexpr double kStartupGain = 2.885;
constexpr double kDrainGain = 0.35;
constexpr std::array<double, 8> kProbeGains{{1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}};

// Startup ends after kFullBwRounds consecutive rounds in which btlbw grew
// by less than kFullBwGrowth.
constexpr double kFullBwGrowth = 1.25;
constexpr int kFullBwRounds = 3;

// Congestion window = kCwndGain × BDP, floored so a tiny-RTT path can
// still keep a few messages in flight.
constexpr double kCwndGain = 2.0;
constexpr std::uint64_t kMinCwndBytes = 4096;

constexpr double kInitialBwBps = 125000.0;  // 1 Mbit/s, before any sample
constexpr Time kInitialRtt = msec(5);       // RTT estimate before any sample

// Source quench: each signal multiplies the pacing rate by
// kQuenchBackoff (floored at kQuenchFloor); a quiet kQuenchRecovery
// interval steps the factor back toward 1.
constexpr double kQuenchBackoff = 0.7;
constexpr double kQuenchFloor = 0.125;
constexpr Time kQuenchRecovery = msec(500);

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kStartup: return "startup";
    case Phase::kDrain: return "drain";
    case Phase::kProbeBw: return "probe-bw";
  }
  return "?";
}

BandwidthModel::BandwidthModel() : BandwidthModel(kInitialBwBps) {}

BandwidthModel::BandwidthModel(double initial_bw_Bps)
    : initial_bw_Bps_(initial_bw_Bps), min_rtt_(kMinRttWindow) {}

void BandwidthModel::advance_round(std::uint64_t delivered_total) {
  ++round_;
  next_round_delivered_ = delivered_total;
  round_advanced_ = true;
  // Age the bandwidth window by round.
  while (!bw_window_.empty() &&
         bw_window_.front().round + kBwWindowRounds < round_) {
    bw_window_.pop_front();
  }
}

void BandwidthModel::check_full_bw() {
  // Only evaluate once per round, and only against non-degenerate
  // estimates: startup must not end because the very first samples are
  // equal to each other.
  const double bw = btlbw_Bps();
  if (bw >= full_bw_ * kFullBwGrowth) {
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= kFullBwRounds) phase_ = Phase::kDrain;
}

void BandwidthModel::on_sample(const DeliveryRateSampler::Sample& s,
                               std::uint64_t delivered_total,
                               std::uint64_t inflight_bytes, Time now) {
  now_ = now;

  if (s.rtt >= 0) min_rtt_.update(now, s.rtt);

  // Round accounting: this ack closes a round if the acked packet was sent
  // after the previous round's delivered level was reached.
  round_advanced_ = false;
  if (s.delivered_at_send >= next_round_delivered_) advance_round(delivered_total);

  // The windowed-max filter ignores app-limited samples below the current
  // estimate: an idle application is not evidence the path got slower.
  if (!s.app_limited || s.bw_Bps > btlbw_Bps()) {
    if (s.bw_Bps > 0.0) {
      while (!bw_window_.empty() && bw_window_.back().bw_Bps <= s.bw_Bps) {
        bw_window_.pop_back();
      }
      bw_window_.push_back({round_, s.bw_Bps});
    }
  }

  // Quench decay: every quiet recovery interval steps the factor back.
  while (quench_factor_ < 1.0 && last_quench_ >= 0 &&
         now - last_quench_ >= kQuenchRecovery) {
    quench_factor_ = std::min(1.0, quench_factor_ / kQuenchBackoff);
    last_quench_ += kQuenchRecovery;
  }

  switch (phase_) {
    case Phase::kStartup:
      if (round_advanced_) check_full_bw();
      if (phase_ != Phase::kDrain) break;
      [[fallthrough]];
    case Phase::kDrain:
      // The queue built during startup has drained once no more than a
      // BDP is outstanding.
      if (inflight_bytes <= static_cast<std::uint64_t>(
                                btlbw_Bps() * to_seconds(min_rtt()))) {
        phase_ = Phase::kProbeBw;
        cycle_idx_ = 2;  // begin at a neutral gain, deterministically
        cycle_start_ = now;
      }
      break;
    case Phase::kProbeBw: {
      const Time cycle_len = std::max<Time>(min_rtt(), msec(1));
      while (now - cycle_start_ >= cycle_len) {
        cycle_idx_ = (cycle_idx_ + 1) % kProbeGains.size();
        cycle_start_ += cycle_len;
      }
      break;
    }
  }
}

void BandwidthModel::on_quench(Time now) {
  ++quenches_;
  quench_factor_ = std::max(kQuenchFloor, quench_factor_ * kQuenchBackoff);
  last_quench_ = now;
  // The gateway told us its queue is full: the current estimate is the
  // bottleneck, stop trying to outgrow it.
  if (phase_ == Phase::kStartup) {
    full_bw_ = btlbw_Bps();
    phase_ = Phase::kDrain;
  }
}

double BandwidthModel::gain() const {
  switch (phase_) {
    case Phase::kStartup: return kStartupGain;
    case Phase::kDrain: return kDrainGain;
    case Phase::kProbeBw: return kProbeGains[cycle_idx_];
  }
  return 1.0;
}

double BandwidthModel::btlbw_Bps() const {
  return bw_window_.empty() ? initial_bw_Bps_ : bw_window_.front().bw_Bps;
}

Time BandwidthModel::min_rtt() const {
  const Time m = min_rtt_.valid() ? min_rtt_.get(now_) : -1;
  return m >= 0 ? m : kInitialRtt;
}

double BandwidthModel::pacing_rate_Bps() const {
  return btlbw_Bps() * gain() * quench_factor_;
}

std::uint64_t BandwidthModel::cwnd_bytes() const {
  const double phase_gain =
      phase_ == Phase::kStartup ? kStartupGain : kCwndGain;
  const double bdp = btlbw_Bps() * to_seconds(min_rtt());
  const auto cwnd = static_cast<std::uint64_t>(phase_gain * bdp);
  return std::max<std::uint64_t>(cwnd, kMinCwndBytes);
}

}  // namespace dash::cc
