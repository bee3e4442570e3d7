// Multi-region sharded topology + workload (DESIGN.md §14).
//
// The canonical partitionable world for the sharded simulation core: R
// regions, each an Ethernet segment with a network-RMS fabric and a few
// ST-running hosts, joined into a ring by WAN trunks (ShardLinkNetwork)
// between the regions' gateway hosts. Region r lives on shard r % shards,
// so the same construction runs under any shard count — that invariance
// is what the determinism tests gate.
//
// Workload: every host streams paced frames over an ST RMS to the next
// host in its region (phase-staggered by a per-host seed), and every
// gateway pings its ring successor over the WAN trunk, which answers with
// a pong. Each host folds its deliveries into an XOR-commutative trace
// hash over (time, source, size) tuples; XOR makes the fold insensitive
// to the admission order of same-timestamp deliveries to independent
// hosts, which is the one ordering freedom the exchange cannot (and need
// not) pin down. trace_hash() combines the per-host hashes in host-id
// order; equal hashes across shard counts mean the simulated history is
// the same.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/ethernet.h"
#include "net/internet.h"
#include "net/shard_link.h"
#include "netrms/fabric.h"
#include "node/node.h"
#include "rms/rms.h"
#include "sim/parallel.h"

namespace dash::workload {

struct MultiRegionConfig {
  std::uint32_t regions = 8;
  int hosts_per_region = 4;
  std::uint64_t seed = 42;

  /// Intra-region LAN (name gets "-<region>" appended).
  net::NetworkTraits lan = net::ethernet_traits("lan");

  /// Inter-region WAN trunks. Each ring link r adds r * wan_delay_skew to
  /// the base delay so concurrent cross-region deliveries stay
  /// time-distinct; the lookahead horizon is the minimum (= wan_delay).
  std::uint64_t wan_bits_per_second = 45'000'000;
  Time wan_delay = msec(2);
  Time wan_delay_skew = usec(13);

  /// Paced intra-region streams (voice-like).
  Time frame_interval = msec(20);
  std::size_t frame_bytes = 160;

  /// Gateway ring pings.
  Time ping_interval = msec(25);
  std::size_t ping_bytes = 64;
};

class MultiRegionWorld {
 public:
  /// A region host: the DASH stack plus its workload state.
  struct Host : node::DashNode {
    using node::DashNode::DashNode;
    rms::Port inbox;                   ///< frame streams land here
    std::unique_ptr<rms::Rms> stream;  ///< to the next host in the region
    std::uint64_t frames_received = 0;
    std::uint64_t trace = 0;  ///< XOR-folded (time, source, size) tuples
  };

  struct Region {
    sim::ShardContext* ctx = nullptr;
    std::unique_ptr<net::EthernetNetwork> lan;
    std::unique_ptr<netrms::NetRmsFabric> fabric;
    std::vector<std::unique_ptr<Host>> hosts;
    // Gateway ring state (gateway = hosts[0]).
    std::uint64_t pings_sent = 0;
    std::uint64_t pings_received = 0;
    std::uint64_t pongs_received = 0;
    std::uint64_t wan_trace = 0;
  };

  MultiRegionWorld(sim::ShardedSimulator& ssim, MultiRegionConfig config = {});

  /// Schedules every source and pinger; call once before running.
  void start();

  /// Shard-count-invariant digest of everything every host received.
  std::uint64_t trace_hash() const;

  std::uint64_t frames_received() const;
  std::uint64_t pings_received() const;
  std::uint64_t pongs_received() const;

  Region& region(std::uint32_t r) { return *regions_[r]; }
  std::uint32_t regions() const { return static_cast<std::uint32_t>(regions_.size()); }
  const MultiRegionConfig& config() const { return config_; }

  static rms::HostId host_id(std::uint32_t region, int i) {
    return static_cast<rms::HostId>(region) * 1000 + i + 1;
  }
  /// Splitmix-style per-host stream: depends only on (seed, host), never
  /// on the shard count.
  static std::uint64_t host_seed(std::uint64_t seed, std::uint64_t host);

 private:
  void build_region(sim::ShardedSimulator& ssim, std::uint32_t r);
  void build_ring(std::uint32_t r);
  void send_frame(std::uint32_t r, int i);
  void send_ping(std::uint32_t r);
  void on_wan_packet(std::uint32_t r, std::uint32_t link, net::Packet p);

  MultiRegionConfig config_;
  std::vector<std::unique_ptr<Region>> regions_;
  /// wan_[r] joins region r's gateway (side A) to region r+1's (side B).
  std::vector<std::unique_ptr<net::ShardLinkNetwork>> wan_;
};

// ------------------------------------------------------------------------
// Internet-scale topology generators (DESIGN.md §15). These build a bare
// InternetNetwork sized to thousands of routers — hosts drive it with raw
// packets (see workload/scenario.h) rather than full ST stacks, which is
// what lets the routing benches run at this scale.

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
/// pod, agg i wired to core group i. Every inter-pod route has (k/2)²
/// equal-cost choices — the canonical ECMP workload. k=30 ⇒ 1125 routers.
struct FatTreeConfig {
  int k = 8;  ///< even; pods = k
  int hosts_per_edge = 1;
  std::uint64_t seed = 1;
  net::Discipline discipline = net::Discipline::kDeadline;
  std::uint64_t trunk_bps = 10'000'000'000;
  Time trunk_delay = usec(5);
  std::uint64_t access_bps = 1'000'000'000;
  Time access_delay = usec(2);
  std::uint64_t buffer_bytes = 256 * 1024;
  Time processing_delay = usec(1);
};
InternetTopology build_fat_tree(sim::Simulator& sim, const FatTreeConfig& cfg);

/// Multi-region WAN: each region is a ring of routers plus seeded random
/// chords; regions join into a ring (with second-neighbor chords for path
/// diversity) over a configurable number of trunk pairs. With use_areas
/// the region id doubles as the routing area, exercising the hierarchical
/// tables. 25 regions × 40 routers ⇒ 1000 routers.
struct WanMeshConfig {
  std::uint32_t regions = 8;
  int routers_per_region = 8;
  int intra_chords = 4;   ///< extra random intra-region trunks per region
  int inter_trunks = 2;   ///< trunk pairs between ring-adjacent regions
  int hosts_per_region = 2;
  bool use_areas = false;
  std::uint64_t seed = 1;
  net::Discipline discipline = net::Discipline::kDeadline;
  std::uint64_t intra_bps = 1'000'000'000;
  Time intra_delay = usec(200);
  std::uint64_t inter_bps = 155'000'000;  // OC-3 class
  Time inter_delay = msec(5);
  std::uint64_t buffer_bytes = 128 * 1024;
  Time processing_delay = usec(5);
};
InternetTopology build_wan_mesh(sim::Simulator& sim, const WanMeshConfig& cfg);

}  // namespace dash::workload
