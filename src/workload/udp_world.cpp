#include "workload/udp_world.h"

namespace dash::workload {

UdpLoopbackWorld::UdpLoopbackWorld(UdpWorldConfig cfg) {
  add_network(std::make_unique<net::UdpNetwork>(driver));
  if (cfg.with_path_manager) {
    add_network(std::make_unique<net::UdpNetwork>(driver, net::udp_traits("udp-b")));
  }
  for (rms::HostId id : node::host_ids(2)) add_node(id, {.path = cfg.path_config});
}

UdpLoopbackWorld::~UdpLoopbackWorld() {
  nodes.clear();
  media.clear();
}

}  // namespace dash::workload
