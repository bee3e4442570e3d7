// A shared-segment (Ethernet-like) network.
//
// All attached hosts share one medium: transmissions are serialized, every
// interface physically sees every frame (the §3.1 "physical broadcast
// property"), and each host's interface keeps a transmit queue whose
// discipline is configurable — deadline-ordered for RMS (§4.1), FIFO or
// static-priority for the baselines. Arbitration is idealized: when the
// medium goes idle it grants the attached interface holding the most
// urgent head packet, which is the behaviour a deadline-scheduling MAC
// would approximate.
#pragma once

#include <map>
#include <memory>

#include "net/network.h"
#include "net/queue.h"
#include "util/rng.h"

namespace dash::net {

class EthernetNetwork final : public Network {
 public:
  EthernetNetwork(sim::Simulator& sim, NetworkTraits traits, std::uint64_t seed,
                  Discipline discipline = Discipline::kDeadline);

  void attach(HostId host, PacketSink sink) override;
  bool attached(HostId host) const override;
  bool send(Packet p) override;

  /// Queued bytes at one host's interface (tests).
  std::uint64_t interface_backlog(HostId host) const;
  std::uint64_t interface_dropped(HostId host) const;

 private:
  struct Interface {
    TxQueue queue;
    PacketSink sink;
    std::uint64_t dropped = 0;

    Interface(Discipline d, std::uint64_t cap) : queue(d, cap) {}
  };

  void arbitrate();
  void transmit(HostId from);
  void on_arrival(Packet& p) override;
  void dispatch(Packet p) override;

  Discipline discipline_;
  Rng rng_;
  std::map<HostId, std::unique_ptr<Interface>> interfaces_;
  bool medium_busy_ = false;
};

/// Canonical traits for a 10 Mb/s laboratory Ethernet segment.
NetworkTraits ethernet_traits(std::string name = "ethernet");

}  // namespace dash::net
