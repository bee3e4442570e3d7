// Real-endpoint loopback topology (DESIGN.md §16).
//
// Two full node stacks on ONE shared UdpNetwork over 127.0.0.1. Each
// registered host gets its own kernel socket (ephemeral port), so every
// packet genuinely crosses the kernel loopback path; the single
// network/fabric pair exists because stream state (netrms negotiation)
// is looked up in the fabric that created it, exactly as a process-wide
// protocol switch would hold it. The simulator under the stacks is run
// by an rt::Driver, so all protocol timers fire in wall time.
#pragma once

#include "net/udp/udp.h"
#include "node/world.h"
#include "path/path.h"
#include "rt/driver.h"

namespace dash::workload {

struct UdpWorldConfig {
  /// Also builds a second UdpNetwork/fabric pair (`media[1]`, named
  /// `udp-b`: a host's network names are unique): a second "NIC" on
  /// 127.0.0.1 with its own sockets. A node gets a path manager only with
  /// two networks (nowhere to fail over otherwise), so with_path_manager
  /// implies this.
  bool with_path_manager = false;
  path::PathConfig path_config = {};
};

/// The live loopback harness: hosts 1 and 2, each with the default ST
/// configuration. Build it, create streams through st(id), then run
/// `driver` until the workload's done-condition holds.
struct UdpLoopbackWorld : node::World<net::UdpNetwork> {
  rt::Driver driver{sim};

  explicit UdpLoopbackWorld(UdpWorldConfig cfg = {});
  /// The sockets deregister from `driver` as they close, and the base's
  /// members outlive this struct's: tears nodes and media down first.
  ~UdpLoopbackWorld();
};

}  // namespace dash::workload
