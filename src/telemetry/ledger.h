// Per-RMS guarantee accounting (DESIGN.md §8).
//
// Every RMS carries a negotiated contract (§2.2–2.3): a delay bound
// A + B·size with a bound type, a capacity, and a bit error rate. A
// provider need not report a missed bound (§2.3: "failure to observe the
// delay bounds is not necessarily reported to the clients"), so a client
// that cares checks its own deliveries. The GuaranteeLedger is that one
// checker: it keeps one StreamAccount per stream, counts the deliveries
// over the bound, and judges them by rms::delay_guarantee_holds. Delays go
// into O(1) log₂ histograms, so a ledger can stay attached for arbitrarily
// long runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "rms/params.h"
#include "rms/rms.h"
#include "telemetry/metrics.h"

namespace dash::telemetry {

/// The ledger row for one stream: the contract plus everything observed
/// against it.
struct StreamAccount {
  std::uint64_t id = 0;
  std::string name;           ///< human label ("voice 1->2")
  rms::HostId src = 0;
  rms::HostId dst = 0;
  rms::Params params;         ///< the negotiated contract

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t misses = 0;   ///< deliveries over the delay bound
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t max_outstanding = 0;  ///< peak bytes sent-but-undelivered
  Histogram delay_ns;

  double miss_fraction() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(misses) / static_cast<double>(delivered);
  }

  /// The §2.3 verdict over every delivery so far (rms::delay_guarantee_holds).
  bool guarantee_holds() const {
    return rms::delay_guarantee_holds(params, misses, delivered);
  }

  /// Peak outstanding bytes against the contracted capacity (§2.2: clients
  /// enforce capacity; this shows how close they came).
  double capacity_utilization() const {
    if (params.capacity == 0) return 0.0;
    return static_cast<double>(max_outstanding) / static_cast<double>(params.capacity);
  }

  /// Observed fraction of sent messages never delivered — the quantity the
  /// contracted bit_error_rate bounds ("fraction of messages corrupted or
  /// lost", §2.2). Only meaningful once traffic has drained.
  double observed_error_rate() const {
    if (sent == 0) return 0.0;
    const std::uint64_t lost = sent > delivered ? sent - delivered : 0;
    return static_cast<double>(lost) / static_cast<double>(sent);
  }

  bool ber_holds() const { return observed_error_rate() <= params.bit_error_rate + 1e-12; }
};

class GuaranteeLedger {
 public:
  /// Opens an account for a stream with its negotiated parameters.
  /// Re-opening an existing id resets the account.
  StreamAccount& open(std::uint64_t id, std::string name, rms::Params params,
                      rms::HostId src, rms::HostId dst) {
    StreamAccount& a = accounts_[id];
    a = StreamAccount{};
    a.id = id;
    a.name = std::move(name);
    a.params = std::move(params);
    a.src = src;
    a.dst = dst;
    return a;
  }

  void on_send(std::uint64_t id, std::uint64_t bytes) {
    auto it = accounts_.find(id);
    if (it == accounts_.end()) return;
    StreamAccount& a = it->second;
    ++a.sent;
    a.bytes_sent += bytes;
    const std::uint64_t outstanding = a.bytes_sent - a.bytes_delivered;
    a.max_outstanding = std::max(a.max_outstanding, outstanding);
  }

  void on_delivery(std::uint64_t id, Time delay_ns, std::uint64_t bytes) {
    auto it = accounts_.find(id);
    if (it == accounts_.end()) return;
    StreamAccount& a = it->second;
    ++a.delivered;
    a.bytes_delivered += bytes;
    if (delay_ns >= 0) {
      a.delay_ns.observe(static_cast<std::uint64_t>(delay_ns));
      if (delay_ns > a.params.delay.bound_for(bytes)) ++a.misses;
    }
  }

  /// Wraps `port`'s handler so every delivery is accounted to `id`. The
  /// caller's `next` handler, if any, receives each message afterwards.
  void watch(rms::Port& port, std::uint64_t id, std::function<Time()> now,
             std::function<void(rms::Message)> next = {}) {
    port.set_handler([this, id, now = std::move(now),
                      next = std::move(next)](rms::Message m) {
      if (m.sent_at >= 0) on_delivery(id, now() - m.sent_at, m.size());
      if (next) next(std::move(m));
    });
  }

  StreamAccount* find(std::uint64_t id) {
    auto it = accounts_.find(id);
    return it == accounts_.end() ? nullptr : &it->second;
  }
  const std::map<std::uint64_t, StreamAccount>& accounts() const { return accounts_; }

  std::size_t streams() const { return accounts_.size(); }
  std::uint64_t violations() const {
    std::uint64_t n = 0;
    for (const auto& [id, a] : accounts_) {
      if (!a.guarantee_holds()) ++n;
    }
    return n;
  }

  /// Human-readable per-stream table (defined in ledger.cpp).
  std::string report() const;

  /// Mirrors every account into `m` under "ledger.<name or id>.*".
  void collect(MetricsRegistry& m) const;

 private:
  std::map<std::uint64_t, StreamAccount> accounts_;
};

}  // namespace dash::telemetry
