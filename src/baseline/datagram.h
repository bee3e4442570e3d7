// Baseline: the "overly simple" datagram abstraction (paper §1).
//
// This is the network interface the paper argues against: unreliable,
// insecure datagrams with no performance, reliability, or security
// parameters. Its structural properties — the ones the paper's critiques
// target — are deliberate:
//
//   * data integrity is a mandatory part of the primitive: a software
//     checksum is always computed, even when interface hardware already
//     checksums frames ("there is no means for software layers to learn
//     of this and avoid doing checksumming themselves");
//   * there is no way for the provider to dictate limits on client
//     behaviour (no capacity), so congestion control is the transport's
//     ad hoc problem;
//   * there are no deadlines: packets carry none, so interface and
//     gateway queues degenerate to FIFO behaviour for this traffic;
//   * there is no failure notification and no delay bound of any kind.
#pragma once

#include <cstdint>
#include <map>

#include "net/network.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"

namespace dash::baseline {

using rms::HostId;
using rms::Label;

/// Header: tag(1) + src port(8) + dst port(8) + length(4) + checksum(2).
inline constexpr std::size_t kDatagramHeaderBytes = 23;

class DatagramService {
 public:
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t checksum_drops = 0;
    std::uint64_t no_port_drops = 0;
    std::uint64_t quenches_delivered = 0;
  };

  DatagramService(sim::Simulator& sim, net::Network& network);

  /// Attaches a host (CPU + ports) to this datagram stack.
  void register_host(HostId host, sim::CpuScheduler& cpu, rms::PortRegistry& ports);

  /// Sends one datagram from (src, src_port) to target. Fire and forget.
  void send(HostId src, rms::PortId src_port, const Label& target, Bytes data);

  /// Registers a source-quench callback for a host (the TCP-like baseline
  /// uses it; RFC 896 style).
  void on_quench(HostId host, std::function<void()> cb);

  /// Port management, delegated to the host's registry.
  void bind_port(HostId host, rms::PortId id, rms::Port* port);
  void unbind_port(HostId host, rms::PortId id);
  rms::PortId allocate_port(HostId host);

  std::uint64_t max_payload() const;
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return network_; }
  const Stats& stats() const { return stats_; }

 private:
  struct HostEntry {
    sim::CpuScheduler* cpu = nullptr;
    rms::PortRegistry* ports = nullptr;
    std::function<void()> quench_cb;
  };

  void receive(HostId host, net::Packet p);
  void process(HostId host, net::Packet p);

  sim::Simulator& sim_;
  net::Network& network_;
  std::map<HostId, HostEntry> hosts_;
  Stats stats_;
};

}  // namespace dash::baseline
