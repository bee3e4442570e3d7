// Shared test scaffolding: ready-made worlds of full DASH hosts
// (node::World on the tests' seed), the baseline comparator's bare
// datagram host, and a request any clean network accepts.
#pragma once

#include <vector>

#include "node/world.h"
#include "path/path.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"

namespace dash::testing {

/// A bare machine — identity, CPU and port registry, no DASH stack — for
/// the baseline comparator's datagram hosts.
struct SimHost {
  rms::HostId id;
  sim::CpuScheduler cpu;
  rms::PortRegistry ports;

  SimHost(rms::HostId id_, sim::Simulator& sim,
          sim::CpuPolicy policy = sim::CpuPolicy::kEdf)
      : id(id_), cpu(sim, policy) {}
};

/// Hosts 1..n on one Ethernet segment.
inline node::World<net::EthernetNetwork> st_world(
    int n = 2, net::NetworkTraits traits = net::ethernet_traits(),
    std::uint64_t seed = 42, st::StConfig st_config = {}) {
  return node::ethernet_world(n, std::move(traits), seed, net::Discipline::kDeadline,
                              {.st = st_config});
}

/// `left` + `right` hosts behind a two-gateway dumbbell.
inline node::World<net::InternetNetwork> wan_world(
    std::vector<rms::HostId> left, std::vector<rms::HostId> right,
    net::NetworkTraits traits = net::internet_traits(), std::uint64_t seed = 42) {
  return node::dumbbell_world(std::move(left), std::move(right), std::move(traits), seed);
}

/// Two clean (zero-BER) Ethernet segments, every host on both — the minimal
/// world where failover has somewhere to go, so every host runs a path
/// manager. with_faults() impairs segment A only.
inline node::World<net::EthernetNetwork> two_net_world(
    int n = 2, net::NetworkTraits traits_a = net::ethernet_traits("eth-a"),
    net::NetworkTraits traits_b = net::ethernet_traits("eth-b"),
    path::PathConfig pc = {}) {
  return node::World<net::EthernetNetwork>(
      {node::ethernet(std::move(traits_a), 1), node::ethernet(std::move(traits_b), 2)},
      node::host_ids(n), {.path = pc});
}

/// A generous best-effort request that any clean network accepts. Tests on
/// deliberately lossy media should pass an explicit `acceptable_ber` of 1.0
/// — the default tolerates realistic residual loss, not "every bit flips".
inline rms::Request loose_request(std::uint64_t capacity = 8192,
                                  std::uint64_t max_message = 512,
                                  double acceptable_ber = 1e-6) {
  rms::Params p;
  p.capacity = capacity;
  p.max_message_size = max_message;
  p.delay.type = rms::BoundType::kBestEffort;
  p.delay.a = sec(10);
  p.delay.b_per_byte = usec(100);
  p.bit_error_rate = acceptable_ber;
  rms::Request req = rms::exact_request(p);
  req.acceptable.capacity = max_message;  // loose: take any capacity that fits
  return req;
}

}  // namespace dash::testing
