// World: a whole run's worth of DASH hosts (Figures 1–2: the same stack
// on every host, whatever network is underneath).
//
// Owns the simulator, the media — each a network with its network RMS
// fabric — the nodes in creation order, and an optional fault injector.
// Every node joins every medium, in the order the media were added, so
// every node's ST lists the networks in the same order. Parameterised by
// the network type so `network` is typed (World<> mixes kinds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/ethernet.h"
#include "net/internet.h"
#include "netrms/fabric.h"
#include "node/node.h"
#include "sim/simulator.h"

namespace dash::node {

/// Builds one network on the world's simulator.
template <class Net>
using MediumFactory = std::function<std::unique_ptr<Net>(sim::Simulator&)>;

template <class Net = net::Network>
class World {
 public:
  struct Medium {
    std::unique_ptr<Net> network;
    std::unique_ptr<netrms::NetRmsFabric> fabric;
  };

  /// Builds one medium per factory, in order, then one node per id in
  /// `hosts`, each joined to every medium. Media that need more than the
  /// simulator (a UDP network's driver) are added with add_network.
  explicit World(std::vector<MediumFactory<Net>> factories = {},
                 std::vector<HostId> hosts = {}, NodeConfig config = {}) {
    for (auto& make : factories) add_network(make(sim));
    for (HostId id : hosts) add_node(id, config);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Adds a medium and its fabric; nodes added from now on join it.
  Net& add_network(std::unique_ptr<Net> built) {
    Medium& m = media.emplace_back(Medium{std::move(built), nullptr});
    m.fabric = std::make_unique<netrms::NetRmsFabric>(sim, *m.network);
    if (media.size() == 1) {
      network = m.network.get();
      fabric = m.fabric.get();
    }
    return *m.network;
  }

  DashNode& add_node(HostId id, NodeConfig config = {}) {
    std::vector<netrms::NetRmsFabric*> fabrics;
    for (Medium& m : media) fabrics.push_back(m.fabric.get());
    return *nodes.emplace_back(std::make_unique<DashNode>(sim, id, fabrics, config));
  }

  DashNode& node(HostId id) {
    for (auto& n : nodes) {
      if (n->id == id) return *n;
    }
    throw std::out_of_range("no node " + std::to_string(id));
  }
  st::SubtransportLayer& st(HostId id) { return *node(id).st; }

  /// Interposes a scripted fault plan on the first medium's network.
  /// Returns the injector for counter assertions; attach before traffic.
  fault::FaultInjector& with_faults(fault::FaultPlan plan, std::uint64_t seed = 7) {
    faults = std::make_unique<fault::FaultInjector>(sim, std::move(plan), seed);
    faults->attach(*network);
    return *faults;
  }

  sim::Simulator sim;
  std::vector<Medium> media;
  /// The first medium (the only one in single-network worlds).
  Net* network = nullptr;
  netrms::NetRmsFabric* fabric = nullptr;
  std::vector<std::unique_ptr<DashNode>> nodes;
  std::unique_ptr<fault::FaultInjector> faults;
};

/// Host ids 1..n.
inline std::vector<HostId> host_ids(int n) {
  std::vector<HostId> ids;
  for (int i = 1; i <= n; ++i) ids.push_back(static_cast<HostId>(i));
  return ids;
}

/// An Ethernet-like segment.
inline MediumFactory<net::EthernetNetwork> ethernet(
    net::NetworkTraits traits = net::ethernet_traits(), std::uint64_t seed = 1,
    net::Discipline discipline = net::Discipline::kDeadline) {
  return [=](sim::Simulator& sim) {
    return std::make_unique<net::EthernetNetwork>(sim, traits, seed, discipline);
  };
}

/// Hosts 1..n on one Ethernet-like segment.
inline World<net::EthernetNetwork> ethernet_world(
    int n, net::NetworkTraits traits = net::ethernet_traits(), std::uint64_t seed = 1,
    net::Discipline discipline = net::Discipline::kDeadline, NodeConfig config = {}) {
  return World<net::EthernetNetwork>({ethernet(std::move(traits), seed, discipline)},
                                     host_ids(n), config);
}

/// `left` and `right` host groups (created in that order) behind two
/// gateways joined by one long-haul trunk.
inline World<net::InternetNetwork> dumbbell_world(
    std::vector<HostId> left, std::vector<HostId> right,
    net::NetworkTraits traits = net::internet_traits(), std::uint64_t seed = 1,
    net::Discipline discipline = net::Discipline::kDeadline, NodeConfig config = {}) {
  std::vector<HostId> hosts = left;
  hosts.insert(hosts.end(), right.begin(), right.end());
  return World<net::InternetNetwork>(
      {[=](sim::Simulator& sim) {
        return net::make_dumbbell(sim, traits, seed, left, right, discipline);
      }},
      std::move(hosts), config);
}

}  // namespace dash::node
