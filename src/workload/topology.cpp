#include "workload/topology.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "util/rng.h"

namespace dash::workload {

std::vector<std::pair<InternetTopology::RouterId, InternetTopology::RouterId>>
InternetTopology::region_uplinks(std::uint32_t region) const {
  std::vector<std::pair<RouterId, RouterId>> out;
  for (const auto& [a, b] : trunks) {
    const bool in_a = router_region[a] == region;
    const bool in_b = router_region[b] == region;
    if (in_a != in_b) out.emplace_back(a, b);
  }
  return out;
}

namespace {

/// Every generated router and link queues by deadline.
constexpr net::Discipline kDiscipline = net::Discipline::kDeadline;

// Fat tree: one host per edge switch, 10 Gb/s trunks, 1 Gb/s access.
constexpr int kFatTreeHostsPerEdge = 1;
constexpr std::uint64_t kFatTreeTrunkBps = 10'000'000'000;
constexpr Time kFatTreeTrunkDelay = usec(5);
constexpr std::uint64_t kFatTreeAccessBps = 1'000'000'000;
constexpr Time kFatTreeAccessDelay = usec(2);
constexpr std::uint64_t kFatTreeBufferBytes = 256 * 1024;
constexpr Time kFatTreeProcessingDelay = usec(1);

// WAN mesh: two hosts per region, 1 Gb/s inside a region, OC-3 class
// trunks between regions.
constexpr int kWanHostsPerRegion = 2;
constexpr std::uint64_t kWanIntraBps = 1'000'000'000;
constexpr Time kWanIntraDelay = usec(200);
constexpr std::uint64_t kWanInterBps = 155'000'000;
constexpr Time kWanInterDelay = msec(5);
constexpr std::uint64_t kWanBufferBytes = 128 * 1024;
constexpr Time kWanProcessingDelay = usec(5);

net::NetworkTraits generated_traits(std::string name, std::uint64_t trunk_bps,
                                    Time trunk_delay, std::uint64_t buffer) {
  net::NetworkTraits t;
  t.name = std::move(name);
  t.physical_broadcast = false;
  t.bits_per_second = trunk_bps;
  t.propagation_delay = trunk_delay;
  t.max_packet_bytes = 1500;
  t.bit_error_rate = 0.0;
  t.buffer_bytes = buffer;
  t.rms_setup_cost = msec(10);
  return t;
}

net::SimplexLink::Config link_config(std::uint64_t bps, Time delay,
                                     std::uint64_t buffer) {
  net::SimplexLink::Config c;
  c.bits_per_second = bps;
  c.propagation_delay = delay;
  c.bit_error_rate = 0.0;
  c.discipline = kDiscipline;
  c.buffer_bytes = buffer;
  return c;
}

}  // namespace

InternetTopology build_fat_tree(sim::Simulator& sim, const FatTreeConfig& cfg) {
  assert(cfg.k >= 2 && cfg.k % 2 == 0 && "fat trees are k-ary with even k");
  const int half = cfg.k / 2;

  InternetTopology topo;
  topo.net = std::make_unique<net::InternetNetwork>(
      sim,
      generated_traits("fattree", kFatTreeTrunkBps, kFatTreeTrunkDelay,
                       kFatTreeBufferBytes),
      cfg.seed, kDiscipline);
  net::InternetNetwork& n = *topo.net;
  const auto trunk =
      link_config(kFatTreeTrunkBps, kFatTreeTrunkDelay, kFatTreeBufferBytes);
  const auto access =
      link_config(kFatTreeAccessBps, kFatTreeAccessDelay, kFatTreeBufferBytes);

  auto add_trunk = [&](InternetTopology::RouterId a,
                       InternetTopology::RouterId b) {
    n.add_trunk(a, b, trunk);
    topo.trunks.emplace_back(a, b);
  };

  // Core switches form region 0; pod p is region p + 1.
  topo.regions = static_cast<std::uint32_t>(cfg.k) + 1;
  for (int i = 0; i < half * half; ++i) {
    topo.core.push_back(n.add_router(kFatTreeProcessingDelay, 0));
    topo.router_region.push_back(0);
  }
  net::HostId next_host = 1;
  for (int pod = 0; pod < cfg.k; ++pod) {
    std::vector<InternetTopology::RouterId> pod_agg, pod_edge;
    for (int i = 0; i < half; ++i) {
      pod_agg.push_back(
          n.add_router(kFatTreeProcessingDelay, static_cast<std::uint32_t>(pod) + 1));
      topo.router_region.push_back(pod + 1);
    }
    for (int i = 0; i < half; ++i) {
      pod_edge.push_back(
          n.add_router(kFatTreeProcessingDelay, static_cast<std::uint32_t>(pod) + 1));
      topo.router_region.push_back(pod + 1);
    }
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) add_trunk(pod_edge[e], pod_agg[a]);
    }
    // Aggregation switch i uplinks to core group i (cores i*half..+half).
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) add_trunk(pod_agg[a], topo.core[a * half + c]);
    }
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < kFatTreeHostsPerEdge; ++h) {
        n.attach_host(next_host, pod_edge[e], access);
        topo.hosts.push_back(next_host);
        ++next_host;
      }
    }
    topo.agg.insert(topo.agg.end(), pod_agg.begin(), pod_agg.end());
    topo.edge.insert(topo.edge.end(), pod_edge.begin(), pod_edge.end());
  }
  return topo;
}

InternetTopology build_wan_mesh(sim::Simulator& sim, const WanMeshConfig& cfg) {
  assert(cfg.regions >= 1 && cfg.routers_per_region >= 1);
  InternetTopology topo;
  topo.regions = cfg.regions;
  topo.net = std::make_unique<net::InternetNetwork>(
      sim,
      generated_traits("wanmesh", kWanInterBps, kWanInterDelay, kWanBufferBytes),
      cfg.seed, kDiscipline);
  net::InternetNetwork& n = *topo.net;
  if (cfg.use_areas) n.enable_areas(true);
  const auto intra = link_config(kWanIntraBps, kWanIntraDelay, kWanBufferBytes);
  const auto inter = link_config(kWanInterBps, kWanInterDelay, kWanBufferBytes);

  Rng rng(cfg.seed);
  // Duplicate-trunk guard: the engine wants one link per router pair.
  auto key = [](InternetTopology::RouterId a, InternetTopology::RouterId b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  std::vector<std::uint64_t> used;
  auto try_add = [&](InternetTopology::RouterId a, InternetTopology::RouterId b,
                     const net::SimplexLink::Config& link) {
    if (a == b) return false;
    const std::uint64_t k = key(a, b);
    for (std::uint64_t u : used) {
      if (u == k) return false;
    }
    used.push_back(k);
    n.add_trunk(a, b, link);
    topo.trunks.emplace_back(a, b);
    return true;
  };

  std::vector<std::vector<InternetTopology::RouterId>> members(cfg.regions);
  for (std::uint32_t r = 0; r < cfg.regions; ++r) {
    for (int i = 0; i < cfg.routers_per_region; ++i) {
      members[r].push_back(n.add_router(kWanProcessingDelay, r));
      topo.router_region.push_back(r);
    }
    // Ring for guaranteed intra-region connectivity, then random chords.
    const auto& m = members[r];
    if (m.size() > 1) {
      for (std::size_t i = 0; i < m.size(); ++i) {
        try_add(m[i], m[(i + 1) % m.size()], intra);
      }
    }
    for (int c = 0; c < cfg.intra_chords; ++c) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto a = m[rng.next() % m.size()];
        const auto b = m[rng.next() % m.size()];
        if (try_add(a, b, intra)) break;
      }
    }
  }
  // Region ring plus second-neighbor chords for inter-region diversity.
  const std::uint32_t ring_links =
      cfg.regions < 2 ? 0 : (cfg.regions == 2 ? 1 : cfg.regions);
  for (std::uint32_t r = 0; r < ring_links; ++r) {
    const std::uint32_t s = (r + 1) % cfg.regions;
    for (int t = 0; t < cfg.inter_trunks; ++t) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto a = members[r][rng.next() % members[r].size()];
        const auto b = members[s][rng.next() % members[s].size()];
        if (try_add(a, b, inter)) break;
      }
    }
  }
  if (cfg.regions > 4) {
    for (std::uint32_t r = 0; r < cfg.regions; ++r) {
      const std::uint32_t s = (r + 2) % cfg.regions;
      const auto a = members[r][rng.next() % members[r].size()];
      const auto b = members[s][rng.next() % members[s].size()];
      try_add(a, b, inter);
    }
  }
  // Hosts hang off seeded-random routers in their region.
  net::HostId next_host = 1;
  for (std::uint32_t r = 0; r < cfg.regions; ++r) {
    for (int h = 0; h < kWanHostsPerRegion; ++h) {
      n.attach_host(next_host, members[r][rng.next() % members[r].size()],
                    intra);
      topo.hosts.push_back(next_host);
      ++next_host;
    }
  }
  return topo;
}

}  // namespace dash::workload
