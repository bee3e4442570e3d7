// Internet-scale topology generators (DESIGN.md §15). These build a bare
// InternetNetwork sized to thousands of routers — hosts drive it with raw
// packets (see workload/scenario.h) rather than full ST stacks, which is
// what lets the routing benches run at this scale.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/internet.h"

namespace dash::workload {

/// A generated internetwork plus the structural facts the scenario
/// drivers and tests need (trunk list for flap injection, per-router
/// region for correlated failures, per-layer router lists for ECMP
/// assertions).
struct InternetTopology {
  using RouterId = net::InternetNetwork::RouterId;

  std::unique_ptr<net::InternetNetwork> net;
  std::vector<std::pair<RouterId, RouterId>> trunks;
  std::vector<net::HostId> hosts;
  std::vector<std::uint32_t> router_region;  ///< pod / region per router
  std::uint32_t regions = 0;

  // Fat-tree layers (empty for the WAN mesh).
  std::vector<RouterId> core, agg, edge;

  /// Trunks with exactly one endpoint inside `region` (its WAN uplinks) —
  /// the set a correlated regional failure takes down.
  std::vector<std::pair<RouterId, RouterId>> region_uplinks(
      std::uint32_t region) const;
};

/// k-ary fat-tree datacenter: (k/2)² core switches, k pods of k/2
/// aggregation + k/2 edge switches, full edge↔agg bipartite graphs per
/// pod, agg i wired to core group i, one host per edge switch. Every
/// inter-pod route has (k/2)² equal-cost choices — the canonical ECMP
/// workload. k=30 ⇒ 1125 routers. Link speeds and delays are fixed in
/// topology.cpp: 10 Gb/s trunks, 1 Gb/s host access.
struct FatTreeConfig {
  int k = 8;  ///< even; pods = k
  std::uint64_t seed = 1;
};
InternetTopology build_fat_tree(sim::Simulator& sim, const FatTreeConfig& cfg);

/// Multi-region WAN: each region is a ring of routers plus seeded random
/// chords; regions join into a ring (with second-neighbor chords for path
/// diversity) over a configurable number of trunk pairs. With use_areas
/// the region id doubles as the routing area, exercising the hierarchical
/// tables. Two hosts per region. 25 regions × 40 routers ⇒ 1000 routers.
/// Link speeds and delays are fixed in topology.cpp: 1 Gb/s inside a
/// region, OC-3 class (155 Mb/s, 5 ms) between regions.
struct WanMeshConfig {
  std::uint32_t regions = 8;
  int routers_per_region = 8;
  int intra_chords = 4;   ///< extra random intra-region trunks per region
  int inter_trunks = 2;   ///< trunk pairs between ring-adjacent regions
  bool use_areas = false;
  std::uint64_t seed = 1;
};
InternetTopology build_wan_mesh(sim::Simulator& sim, const WanMeshConfig& cfg);

}  // namespace dash::workload
