// RMS capacity enforcement (paper §4.4).
//
// "RMS clients are responsible for enforcing the RMS capacity. If they
// fail to do so, the provider's guarantees are voided." Two mechanisms:
//
//   * Rate-based: "using timers, the sender ensures that during any time
//     period of duration A + C·B, the number of bytes sent does not exceed
//     C. This approach is pessimistic in the sense that it assumes the
//     maximum delay for all messages."
//   * Acknowledgement-based: "the sender receives flow control
//     acknowledgements for messages received. This may achieve higher
//     maximum throughput at the cost of the reverse message traffic."
//     (In DASH the ST's fast-acknowledgement service carries these.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "rms/params.h"
#include "sim/simulator.h"

namespace dash::transport {

/// Common interface so the stream protocol can swap mechanisms.
class CapacityEnforcer {
 public:
  virtual ~CapacityEnforcer() = default;

  /// May `n` more bytes be sent right now without exceeding capacity?
  virtual bool can_send(std::size_t n) = 0;

  /// Records that `n` bytes were sent.
  virtual void note_sent(std::size_t n) = 0;

  /// Records a flow-control acknowledgement for `n` bytes (ack-based only).
  virtual void note_acked(std::size_t n) { (void)n; }

  /// Earliest time a blocked send of `n` bytes could proceed, or
  /// kTimeNever if only an external event (an ack) can unblock it.
  virtual Time next_allowed(std::size_t n) = 0;
};

/// The pessimistic timer-based enforcer.
class RateBasedEnforcer final : public CapacityEnforcer {
 public:
  RateBasedEnforcer(sim::Simulator& sim, const rms::Params& params)
      : sim_(sim),
        capacity_(params.capacity),
        period_(params.delay.a +
                params.delay.b_per_byte * static_cast<Time>(params.capacity)) {}

  bool can_send(std::size_t n) override {
    expire();
    return in_window_ + n <= capacity_;
  }

  void note_sent(std::size_t n) override {
    expire();
    in_window_ += n;
    history_.push_back({sim_.now(), n});
  }

  Time next_allowed(std::size_t n) override {
    expire();
    if (in_window_ + n <= capacity_) return sim_.now();
    // Walk forward through history until enough bytes age out.
    std::uint64_t freed = 0;
    for (const auto& e : history_) {
      freed += e.bytes;
      if (in_window_ - freed + n <= capacity_) return e.time + period_;
    }
    return kTimeNever;
  }

  Time period() const { return period_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t bytes;
  };

  void expire() {
    const Time cutoff = sim_.now() - period_;
    while (!history_.empty() && history_.front().time <= cutoff) {
      in_window_ -= history_.front().bytes;
      history_.pop_front();
    }
  }

  sim::Simulator& sim_;
  std::uint64_t capacity_;
  Time period_;
  std::deque<Entry> history_;
  std::uint64_t in_window_ = 0;
};

/// Regulator for statistical streams, addressing §5's open question of
/// how a statistical workload declaration should be parameterized and
/// enforced: the declared (average load, burstiness) pair maps onto a
/// token bucket with rate = average load and depth = burstiness x rate x
/// averaging window. A source that honors its declaration is never
/// delayed; one that exceeds it is shaped back to the declared envelope —
/// which is precisely what statistical admission (netrms/admission.h)
/// assumed when it multiplexed the stream. The depth is floored at the
/// RMS's max_message_size: a send never exceeds it, and a shallower bucket
/// could never hold enough tokens for a full-size message.
class TokenBucketEnforcer final : public CapacityEnforcer {
 public:
  TokenBucketEnforcer(sim::Simulator& sim, const rms::Params& params)
      : sim_(sim),
        rate_bytes_per_sec_(params.statistical.average_load_bps / 8.0),
        depth_(std::max(static_cast<double>(params.max_message_size),
                        params.statistical.burstiness * rate_bytes_per_sec_ *
                            to_seconds(kAveragingWindow))),
        tokens_(depth_),
        last_refill_(sim.now()) {}

  bool can_send(std::size_t n) override {
    refill();
    return tokens_ >= static_cast<double>(n);
  }

  void note_sent(std::size_t n) override {
    refill();
    tokens_ -= static_cast<double>(n);
  }

  Time next_allowed(std::size_t n) override {
    refill();
    const double deficit = static_cast<double>(n) - tokens_;
    if (deficit <= 0.0) return sim_.now();
    if (rate_bytes_per_sec_ <= 0.0) return kTimeNever;
    return sim_.now() + static_cast<Time>(deficit / rate_bytes_per_sec_ * 1e9) + 1;
  }

  double tokens() const { return tokens_; }
  double depth() const { return depth_; }

 private:
  static constexpr Time kAveragingWindow = msec(100);

  void refill() {
    const Time now = sim_.now();
    tokens_ = std::min(depth_, tokens_ + rate_bytes_per_sec_ *
                                             to_seconds(now - last_refill_));
    last_refill_ = now;
  }

  sim::Simulator& sim_;
  double rate_bytes_per_sec_;
  double depth_;
  double tokens_;
  Time last_refill_;
};

/// The optimistic acknowledgement-based enforcer: a fixed window equal to
/// the RMS capacity (§5: "flow control protocols can be simpler because of
/// the fixed window size determined by RMS capacity").
class AckBasedEnforcer final : public CapacityEnforcer {
 public:
  explicit AckBasedEnforcer(std::uint64_t capacity) : capacity_(capacity) {}

  bool can_send(std::size_t n) override { return outstanding_ + n <= capacity_; }

  void note_sent(std::size_t n) override { outstanding_ += n; }

  void note_acked(std::size_t n) override {
    outstanding_ -= std::min<std::uint64_t>(outstanding_, n);
  }

  Time next_allowed(std::size_t) override { return kTimeNever; }  // needs an ack

  std::uint64_t outstanding() const { return outstanding_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t outstanding_ = 0;
};

}  // namespace dash::transport
