#include "workload/udp_world.h"

namespace dash::workload {

UdpLoopbackWorld::UdpLoopbackWorld(UdpWorldConfig cfg) {
  add_network(std::make_unique<net::UdpNetwork>(driver, cfg.traits, cfg.udp));
  if (cfg.with_path_manager) {
    add_network(std::make_unique<net::UdpNetwork>(driver, cfg.traits, cfg.udp));
  }
  for (int i = 1; i <= cfg.hosts; ++i) {
    add_node(static_cast<rms::HostId>(i), {.st = cfg.st_config, .path = cfg.path_config});
  }
}

UdpLoopbackWorld::~UdpLoopbackWorld() {
  nodes.clear();
  media.clear();
}

}  // namespace dash::workload
