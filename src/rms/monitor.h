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
#include "sim/simulator.h"
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

  /// Arms a silence watchdog: if no delivery is observed within `window`,
  /// `on_timeout` fires (once). Each delivery pushes the deadline out by a
  /// full window — a real cancel + re-arm, so a healthy stream keeps exactly
  /// one live timer and a torn-down monitor keeps none.
  void arm_timeout(sim::Simulator& sim, Time window,
                   std::function<void()> on_timeout) {
    sim_ = &sim;
    timeout_window_ = window;
    on_timeout_ = std::move(on_timeout);
    ++timeouts_armed_;
    rearm_watchdog();
  }

  /// Disarms the watchdog; the pending timer leaves the simulator at once.
  void disarm() {
    if (sim_ != nullptr) sim_->cancel(watchdog_);
    on_timeout_ = nullptr;
    sim_ = nullptr;
  }

  std::uint64_t timeouts_fired() const { return timeouts_fired_; }
  std::uint64_t timeouts_armed() const { return timeouts_armed_; }

  ~DelayMonitor() { disarm(); }

 private:
  void observe(Message m) {
    if (m.sent_at >= 0) {
      const Time delay = now_() - m.sent_at;
      delays_ns_.add(static_cast<double>(delay));
      if (delay > params_.delay.bound_for(m.size())) ++misses_;
    }
    if (sim_ != nullptr) rearm_watchdog();
    if (next_) next_(std::move(m));
  }

  void rearm_watchdog() {
    sim_->cancel(watchdog_);
    watchdog_ = sim_->timer_after(timeout_window_, [this] {
      ++timeouts_fired_;
      sim_ = nullptr;  // one-shot: delivery must re-arm explicitly
      if (on_timeout_) on_timeout_();
    });
  }

  Params params_;
  std::function<Time()> now_;
  std::function<void(Message)> next_;
  Samples delays_ns_;
  std::uint64_t misses_ = 0;

  // Silence watchdog (optional).
  sim::Simulator* sim_ = nullptr;
  Time timeout_window_ = 0;
  std::function<void()> on_timeout_;
  sim::TimerHandle watchdog_;
  std::uint64_t timeouts_fired_ = 0;
  std::uint64_t timeouts_armed_ = 0;
};

}  // namespace dash::rms
