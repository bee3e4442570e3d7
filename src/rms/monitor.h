// Delay-bound monitoring (paper §2.3).
//
// "Failure to observe the delay bounds is not necessarily reported to the
// clients" — so clients that care attach a monitor. DelayMonitor wraps a
// Port's handler, measures each delivery against the stream's negotiated
// bound, and accumulates the statistics statistical guarantees are stated
// in (miss fraction vs the promised delay probability).
#pragma once

#include <functional>
#include <utility>

#include "rms/params.h"
#include "rms/rms.h"
#include "util/stats.h"

namespace dash::rms {

class DelayMonitor {
 public:
  /// Monitors deliveries to `port` against `params`' delay bound. The
  /// caller's `next` handler (optional) receives each message afterwards.
  /// `now` supplies the clock (a simulator lambda in practice).
  DelayMonitor(Port& port, Params params, std::function<Time()> now,
               std::function<void(Message)> next = {})
      : params_(std::move(params)), now_(std::move(now)), next_(std::move(next)) {
    port.set_handler([this](Message m) { observe(std::move(m)); });
  }

  /// Messages delivered so far.
  std::size_t count() const { return delays_ns_.count(); }

  /// Fraction of deliveries that violated the bound.
  double miss_fraction() {
    if (delays_ns_.empty()) return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(delays_ns_.count());
  }

  /// True while the observed misses honor the stream's guarantee
  /// (delay_guarantee_holds, §2.3).
  bool guarantee_holds() {
    return delay_guarantee_holds(params_, misses_, delays_ns_.count());
  }

  double mean_ms() { return delays_ns_.mean() / 1e6; }
  double p99_ms() { return delays_ns_.percentile(0.99) / 1e6; }
  double max_ms() { return delays_ns_.max() / 1e6; }
  std::uint64_t misses() const { return misses_; }

 private:
  void observe(Message m) {
    if (m.sent_at >= 0) {
      const Time delay = now_() - m.sent_at;
      delays_ns_.add(static_cast<double>(delay));
      if (delay > params_.delay.bound_for(m.size())) ++misses_;
    }
    if (next_) next_(std::move(m));
  }

  Params params_;
  std::function<Time()> now_;
  std::function<void(Message)> next_;
  Samples delays_ns_;
  std::uint64_t misses_ = 0;
};

}  // namespace dash::rms
