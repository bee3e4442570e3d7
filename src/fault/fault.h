// Deterministic scripted fault injection (adversarial network model).
//
// The paper's guarantees — §2.1 reliability qualities, §4.3 discard of
// partially received fragmented messages, §5 RKOM retransmission — only
// mean something on a network that misbehaves. A FaultPlan scripts
// time-windowed impairments on the medium: i.i.d. and Gilbert–Elliott
// burst loss, reordering (extra delay jitter), duplication, payload
// corruption, per-host link down/up, and full partitions with heal times.
// A FaultInjector executes the plan deterministically from a seed by
// hooking net::Network packet delivery (net/fault_hook.h): the same seed,
// plan, and workload reproduce the same drops bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/fault_hook.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace dash::fault {

using net::HostId;

/// Matches any host in a plan rule (real host ids are nonzero).
inline constexpr HostId kAnyHost = 0;

/// Half-open activity window [start, end) in simulated time. The default
/// window is always active.
struct Window {
  Time start = 0;
  Time end = kTimeNever;
  bool contains(Time t) const { return t >= start && t < end; }
};

/// Which packets a rule applies to. kAnyHost matches anything; with
/// `symmetric` the reversed direction matches too.
struct Match {
  HostId src = kAnyHost;
  HostId dst = kAnyHost;
  bool symmetric = true;

  bool matches(const net::Packet& p) const {
    auto one_way = [&](HostId s, HostId d) {
      return (s == kAnyHost || p.src == s) && (d == kAnyHost || p.dst == d);
    };
    return one_way(src, dst) || (symmetric && one_way(dst, src));
  }
};

/// Packet loss: i.i.d. with probability `iid`, or (with `burst`) a
/// Gilbert–Elliott two-state channel whose chain advances once per matching
/// packet — `iid` is then the loss probability in the good state.
struct LossRule {
  Match match;
  Window window;
  double iid = 0.0;
  bool burst = false;
  double p_enter_burst = 0.0;  ///< P(good → bad) per examined packet
  double p_exit_burst = 0.0;   ///< P(bad → good) per examined packet
  double loss_in_burst = 1.0;  ///< loss probability in the bad state
};

/// Reordering: with `probability`, delay the packet by a uniform draw in
/// [min_extra, max_extra] so later traffic can overtake it.
struct ReorderRule {
  Match match;
  Window window;
  double probability = 0.0;
  Time min_extra = usec(100);
  Time max_extra = msec(5);
};

/// Duplication: with `probability`, inject `copies` extra deliveries of the
/// packet, spaced `gap` apart behind the original.
struct DuplicateRule {
  Match match;
  Window window;
  double probability = 0.0;
  int copies = 1;
  Time gap = usec(50);
};

/// Corruption: with `probability`, flip one payload bit and mark the packet
/// corrupted (hardware checksums will catch it where the traits say so).
struct CorruptRule {
  Match match;
  Window window;
  double probability = 0.0;
};

/// All traffic to or from `host` is blocked while the window is active.
struct LinkDownRule {
  HostId host = kAnyHost;
  Window window;
};

/// Traffic crossing the cut between group_a and group_b is blocked; the
/// partition heals at window.end. Broadcast frames sourced in either group
/// would cross the cut, so they are blocked too.
struct PartitionRule {
  std::vector<HostId> group_a;
  std::vector<HostId> group_b;
  Window window;
};

/// A declarative impairment script. Build with the fluent helpers or fill
/// the rule vectors directly; hand to a FaultInjector to execute.
struct FaultPlan {
  std::vector<LossRule> losses;
  std::vector<ReorderRule> reorders;
  std::vector<DuplicateRule> duplicates;
  std::vector<CorruptRule> corruptions;
  std::vector<LinkDownRule> link_downs;
  std::vector<PartitionRule> partitions;

  FaultPlan& iid_loss(double p, Window w = {}, Match m = {}) {
    losses.push_back({m, w, p, false, 0.0, 0.0, 1.0});
    return *this;
  }
  FaultPlan& burst_loss(double p_enter, double p_exit, double loss_in_burst = 1.0,
                        Window w = {}, Match m = {}) {
    losses.push_back({m, w, 0.0, true, p_enter, p_exit, loss_in_burst});
    return *this;
  }
  FaultPlan& reorder(double p, Time min_extra = usec(100), Time max_extra = msec(5),
                     Window w = {}, Match m = {}) {
    reorders.push_back({m, w, p, min_extra, max_extra});
    return *this;
  }
  FaultPlan& duplicate(double p, int copies = 1, Time gap = usec(50),
                       Window w = {}, Match m = {}) {
    duplicates.push_back({m, w, p, copies, gap});
    return *this;
  }
  FaultPlan& corrupt(double p, Window w = {}, Match m = {}) {
    corruptions.push_back({m, w, p});
    return *this;
  }
  FaultPlan& link_down(HostId host, Time start, Time end) {
    link_downs.push_back({host, {start, end}});
    return *this;
  }
  /// Whole-network outage: every packet is blocked while the window is
  /// active (the network object itself stays "up", so nothing is notified
  /// — exactly the silent-death case path probing exists to detect).
  FaultPlan& outage(Time start, Time end) {
    return link_down(kAnyHost, start, end);
  }
  FaultPlan& partition(std::vector<HostId> a, std::vector<HostId> b, Time start,
                       Time heal) {
    partitions.push_back({std::move(a), std::move(b), {start, heal}});
    return *this;
  }
};

/// Executes a FaultPlan on a network's packet stream. Deterministic: all
/// randomness comes from the seed, and judge() is called in simulation
/// order, so identical (plan, seed, workload) runs produce identical
/// verdicts and counters.
class FaultInjector final : public net::FaultHook {
 public:
  struct Counters {
    std::uint64_t examined = 0;
    std::uint64_t dropped_iid = 0;
    std::uint64_t dropped_burst = 0;    ///< dropped while in the bad state
    std::uint64_t blocked_link = 0;
    std::uint64_t blocked_partition = 0;
    std::uint64_t reordered = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  FaultInjector(sim::Simulator& sim, FaultPlan plan, std::uint64_t seed);

  /// Interposes this injector on `network`'s medium.
  void attach(net::Network& network) { network.set_fault_hook(this); }

  net::FaultVerdict judge(net::Packet& p) override;

  const Counters& counters() const { return counters_; }
  const FaultPlan& plan() const { return plan_; }

  /// Records "fault.*" categories (loss, burst, link, partition, reorder,
  /// dup, corrupt) as impairments fire. Pass nullptr to detach.
  void set_trace(sim::Trace* trace) { trace_ = trace; }

 private:
  void note(const char* category, const net::Packet& p);

  sim::Simulator& sim_;
  FaultPlan plan_;
  Rng rng_;
  std::vector<char> burst_state_;  ///< per LossRule: nonzero = bad state
  Counters counters_;
  sim::Trace* trace_ = nullptr;
};

}  // namespace dash::fault
