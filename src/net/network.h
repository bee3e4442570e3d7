// Abstract network objects (paper §3.1).
//
// "DASH allows multiple network types... Networks are abstract entities."
// Concrete networks (EthernetNetwork, InternetNetwork) move packets between
// attached hosts; the network-RMS providers in src/netrms layer the RMS
// protocol on top.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/fault_hook.h"
#include "net/packet.h"
#include "net/traits.h"
#include "sim/simulator.h"

namespace dash::net {

class Network {
 public:
  struct Stats {
    std::uint64_t sent = 0;       ///< packets accepted from hosts
    std::uint64_t delivered = 0;  ///< packets handed to a destination sink
    std::uint64_t dropped = 0;    ///< overflow / down / unattached dst
    std::uint64_t corrupted_dropped = 0;  ///< hardware checksum discards
    std::uint64_t bytes_delivered = 0;
    // Scripted impairments (fault hook). Partition/link-down blocks are
    // counted separately from random loss so tests can tell them apart.
    std::uint64_t fault_dropped = 0;      ///< scripted random loss
    std::uint64_t fault_partitioned = 0;  ///< link-down / partition blocks
    std::uint64_t fault_delayed = 0;      ///< reordering delays applied
    std::uint64_t fault_duplicated = 0;   ///< extra copies injected
    std::uint64_t fault_corrupted = 0;    ///< payloads bit-flipped

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  explicit Network(sim::Simulator& sim, NetworkTraits traits)
      : sim_(sim), traits_(std::move(traits)) {}
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const NetworkTraits& traits() const { return traits_; }
  sim::Simulator& simulator() { return sim_; }

  /// Attaches a host; packets addressed to it are passed to `sink`.
  virtual void attach(HostId host, PacketSink sink) = 0;
  virtual bool attached(HostId host) const = 0;

  /// Injects a packet from `p.src`. Returns false if dropped immediately.
  virtual bool send(Packet p) = 0;

  /// Reserves buffer space along the src→dst path for a stream
  /// (deterministic RMS admission). Default: nothing to reserve.
  virtual bool reserve_stream(std::uint64_t stream, HostId src, HostId dst,
                              std::uint64_t bytes) {
    (void)stream, (void)src, (void)dst, (void)bytes;
    return true;
  }
  virtual void release_stream(std::uint64_t stream) { (void)stream; }

  /// Wiretap: `tap` receives a copy of every frame the medium carries.
  /// Models the eavesdropper of §2.1/§3.1 (physical broadcast property).
  void add_tap(PacketSink tap) { taps_.push_back(std::move(tap)); }

  /// Failure injection: take the whole network down/up. Each up→down
  /// transition notifies the on_down listeners once; a repeated
  /// set_down(true) does not.
  void set_down(bool down) {
    const bool was_down = down_;
    down_ = down;
    if (!down || was_down) return;
    for (const auto& cb : down_cbs_) cb();
  }
  bool down() const { return down_; }

  /// Invoked on transition to down (network RMS failure notification).
  void on_down(std::function<void()> cb) { down_cbs_.push_back(std::move(cb)); }

  const Stats& stats() const { return stats_; }

  /// Fresh sequence number for packets entering this network.
  std::uint64_t next_seq() { return ++seq_; }

  /// Interposes a scripted fault hook on this network's medium. Every
  /// packet about to be delivered is judged first; nullptr detaches. The
  /// hook must outlive the network (or be detached before destruction).
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

 protected:
  /// The one delivery path: every medium passes a packet leaving it for
  /// its destination here. The fault hook judges it first; the packet, if
  /// it survives undelayed, arrives now, and delayed copies and duplicates
  /// arrive later without being judged again.
  void deliver(Packet p) {
    if (apply_fault_hook(p)) arrive(std::move(p));
  }

  /// The medium's view of an arriving frame, before the checksum check:
  /// bit errors and wiretaps, in the medium's own order. Default: none.
  virtual void on_arrival(Packet& p) { (void)p; }
  /// Hands an intact frame to its destination(s) through hand_to.
  virtual void dispatch(Packet p) = 0;

  /// Passes `p` to `sink` and counts it delivered; a missing (nullptr) or
  /// empty sink counts it dropped.
  void hand_to(const PacketSink* sink, Packet p) {
    if (sink == nullptr || !*sink) {
      ++stats_.dropped;
      return;
    }
    ++stats_.delivered;
    stats_.bytes_delivered += p.size();
    (*sink)(std::move(p));
  }

  void run_taps(const Packet& p) {
    for (const auto& t : taps_) t(p);
  }

  sim::Simulator& sim_;
  NetworkTraits traits_;
  Stats stats_;

 private:
  /// Runs the fault hook on a packet entering the delivery path. Returns
  /// true if the (possibly corrupted) packet should arrive now; if the hook
  /// consumed it — dropped, or rescheduled with extra delay — this returns
  /// false and any surviving copies are scheduled to arrive unjudged.
  bool apply_fault_hook(Packet& p) {
    if (fault_hook_ == nullptr) return true;
    FaultVerdict v = fault_hook_->judge(p);
    if (v.corrupted) ++stats_.fault_corrupted;
    for (int i = 0; i < v.duplicates; ++i) {
      ++stats_.fault_duplicated;
      // Copies trail the original so the first arrival is the real one.
      const Time at = v.delay + static_cast<Time>(i + 1) *
                                    std::max<Time>(v.duplicate_gap, 1);
      sim_.after(at, [this, copy = p]() mutable { arrive(std::move(copy)); });
    }
    if (v.drop) {
      if (v.blocked) {
        ++stats_.fault_partitioned;
      } else {
        ++stats_.fault_dropped;
      }
      return false;
    }
    if (v.delay > 0) {
      ++stats_.fault_delayed;
      sim_.after(v.delay,
                 [this, copy = std::move(p)]() mutable { arrive(std::move(copy)); });
      return false;
    }
    return true;
  }

  /// Post-hook delivery: a down network drops; otherwise the medium sees
  /// the frame, a hardware checksum discards it if damaged, and the medium
  /// dispatches it.
  void arrive(Packet p) {
    if (down_) {
      ++stats_.dropped;
      return;
    }
    on_arrival(p);
    if (p.corrupted && traits_.hardware_checksum) {
      ++stats_.corrupted_dropped;
      return;
    }
    dispatch(std::move(p));
  }

  bool down_ = false;
  FaultHook* fault_hook_ = nullptr;
  std::vector<PacketSink> taps_;
  std::vector<std::function<void()>> down_cbs_;
  std::uint64_t seq_ = 0;
};

/// Records everything a wiretap sees; security tests scan the captures for
/// plaintext and replay them to test authentication.
class Eavesdropper {
 public:
  explicit Eavesdropper(Network& network) {
    network.add_tap([this](Packet p) { captured_.push_back(std::move(p)); });
  }

  const std::vector<Packet>& captured() const { return captured_; }
  std::size_t count() const { return captured_.size(); }

  /// True if any captured payload contains `needle` as a byte substring —
  /// i.e. the eavesdropper could read the data.
  bool saw_plaintext(BytesView needle) const {
    for (const auto& p : captured_) {
      if (contains(p.payload, needle)) return true;
    }
    return false;
  }

 private:
  static bool contains(BytesView haystack, BytesView needle) {
    if (needle.empty() || haystack.size() < needle.size()) return false;
    for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
      bool match = true;
      for (std::size_t j = 0; j < needle.size(); ++j) {
        if (haystack[i + j] != needle[j]) {
          match = false;
          break;
        }
      }
      if (match) return true;
    }
    return false;
  }

  std::vector<Packet> captured_;
};

}  // namespace dash::net
