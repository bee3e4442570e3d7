// DashNode: one DASH host, fully assembled.
//
// Bundles the pieces every host needs — CPU scheduler, port registry,
// subtransport layer, a path manager when the host has somewhere to fail
// over to, and (lazily) an RKOM node — so applications, examples, and tests
// don't re-wire the stack by hand. Worlds of several hosts are built with
// node::World (node/world.h).
#pragma once

#include <memory>
#include <vector>

#include "netrms/fabric.h"
#include "path/path.h"
#include "rkom/rkom.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"
#include "st/st.h"

namespace dash::node {

using rms::HostId;

struct NodeConfig {
  sim::CpuPolicy cpu_policy = sim::CpuPolicy::kEdf;
  st::StConfig st = {};
  path::PathConfig path = {};
  rkom::RkomConfig rkom = {};
};

class DashNode {
 public:
  /// Builds the stack and joins `fabrics` in order. This is the one place
  /// that decides whether a host gets a path manager: it does iff
  /// config.path.enabled and it joins two or more fabrics. With one there
  /// is nowhere to fail over, and a manager is not inert — it turns on ST
  /// handoff retention and internal fast acks — so single-network hosts
  /// run the plain stack. A node that join()s more networks later keeps
  /// the decision made here.
  DashNode(sim::Simulator& sim, HostId id,
           const std::vector<netrms::NetRmsFabric*>& fabrics = {},
           NodeConfig config = {})
      : id(id),
        cpu(std::make_unique<sim::CpuScheduler>(sim, config.cpu_policy)),
        st(std::make_unique<st::SubtransportLayer>(sim, id, *cpu, ports, config.st)),
        rkom_config_(config.rkom) {
    if (config.path.enabled && fabrics.size() >= 2) {
      path = std::make_unique<path::PathManager>(sim, *st, config.path);
    }
    for (netrms::NetRmsFabric* fabric : fabrics) join(*fabric);
  }

  DashNode(const DashNode&) = delete;
  DashNode& operator=(const DashNode&) = delete;

  /// Attaches this node to a network: registers the host with the fabric
  /// and makes the network available to the subtransport layer (and the
  /// path manager, which scores it as a failover candidate; both index
  /// fabrics by join order).
  void join(netrms::NetRmsFabric& fabric) {
    fabric.register_host(id, *cpu, ports);
    st->add_network(fabric);
    if (path != nullptr) path->add_network(fabric);
  }

  /// The RKOM request/reply endpoint, constructed on first use (§3.3).
  rkom::RkomNode& rkom() {
    if (rkom_ == nullptr) {
      rkom_ = std::make_unique<rkom::RkomNode>(*st, ports, rkom_config_);
    }
    return *rkom_;
  }

  const HostId id;
  rms::PortRegistry ports;
  std::unique_ptr<sim::CpuScheduler> cpu;
  std::unique_ptr<st::SubtransportLayer> st;

 private:
  rkom::RkomConfig rkom_config_;
  std::unique_ptr<rkom::RkomNode> rkom_;

 public:
  /// nullptr unless the constructor gave the node a manager. Declared
  /// last: destroyed first, so its destructor can still detach the
  /// observer from `st`.
  std::unique_ptr<path::PathManager> path;
};

}  // namespace dash::node
