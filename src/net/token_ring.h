// A token-ring network (IEEE 802.5 / FDDI-flavored).
//
// The second concrete network type (§3.1: "DASH allows multiple network
// types... networks are abstract entities"), and the one whose media
// access is *naturally deterministic*: a station may transmit only while
// holding the circulating token, for at most the token-holding time, so
// worst-case access delay is bounded by one token rotation —
//
//     rotation_max = stations x (holding_time + pass_time)
//
// — which is exactly the kind of hard bound deterministic RMS need
// (§2.3). Frames travel the ring, so every station sees every frame: the
// physical broadcast property holds (§3.1).
//
// Token circulation is simulated lazily: when every station's queue is
// empty the token parks, and the next send resumes it from its parked
// position (charging the true partial-rotation latency). This keeps idle
// simulations quiescent without changing any observable timing.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/network.h"
#include "net/queue.h"
#include "util/rng.h"

namespace dash::net {

class TokenRingNetwork final : public Network {
 public:
  struct RingConfig {
    /// Maximum transmission time per token visit.
    Time token_holding_time = msec(1);
  };

  TokenRingNetwork(sim::Simulator& sim, NetworkTraits traits, std::uint64_t seed,
                   RingConfig ring, Discipline discipline = Discipline::kDeadline);
  TokenRingNetwork(sim::Simulator& sim, NetworkTraits traits, std::uint64_t seed)
      : TokenRingNetwork(sim, std::move(traits), seed, RingConfig{}) {}

  void attach(HostId host, PacketSink sink) override;
  bool attached(HostId host) const override;
  bool send(Packet p) override;

  /// Worst-case token rotation time with the current station count.
  Time worst_case_rotation() const;

  /// The §2.3 deterministic access bound: rotation + one max frame + ring
  /// propagation. Used by ring-aware admission (see ring_traits()).
  Time access_bound() const;

  std::uint64_t station_backlog(HostId host) const;
  std::uint64_t token_rotations() const { return rotations_; }

 private:
  struct Station {
    HostId host = 0;
    std::unique_ptr<TxQueue> queue;
    PacketSink sink;
  };

  void grant(std::size_t index);
  bool ring_has_traffic() const;
  void on_arrival(Packet& p) override;
  void dispatch(Packet p) override;

  RingConfig ring_;
  Discipline discipline_;
  Rng rng_;
  std::vector<Station> stations_;
  std::map<HostId, std::size_t> index_of_;
  std::size_t token_at_ = 0;
  bool token_moving_ = false;
  std::uint64_t rotations_ = 0;
};

/// Canonical traits for a 4 Mb/s token ring. The min_delay floor encoded
/// here already includes the worst-case rotation, so quality_limits() and
/// deterministic admission stay honest about media access.
NetworkTraits token_ring_traits(std::string name = "token-ring",
                                int expected_stations = 8,
                                TokenRingNetwork::RingConfig ring =
                                    TokenRingNetwork::RingConfig{});

}  // namespace dash::net
