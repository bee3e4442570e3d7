#include "workload/topology.h"

#include <cassert>
#include <string>
#include <utility>

#include "rms/params.h"
#include "util/bytes.h"

namespace dash::workload {

namespace {

constexpr std::uint64_t kPingStream = 1;
constexpr std::uint64_t kPongStream = 2;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One delivery tuple. XOR-folded per host, so the fold commutes across
/// same-timestamp deliveries (see topology.h header comment).
std::uint64_t tuple_hash(Time at, std::uint64_t source, std::uint64_t size) {
  return mix64(static_cast<std::uint64_t>(at)) ^
         mix64(mix64(source) + size * 0x9e3779b97f4a7c15ull);
}

/// A best-effort request every clean LAN accepts (mirrors the test
/// helpers' loose_request, restated here so src/ does not include tests/).
rms::Request frame_request(std::size_t frame_bytes) {
  rms::Params p;
  p.capacity = 16 * 1024;
  p.max_message_size = frame_bytes;
  p.delay.type = rms::BoundType::kBestEffort;
  p.delay.a = sec(10);
  p.delay.b_per_byte = usec(100);
  p.bit_error_rate = 1e-6;
  rms::Request req = rms::exact_request(p);
  req.acceptable.capacity = frame_bytes;
  return req;
}

}  // namespace

std::uint64_t MultiRegionWorld::host_seed(std::uint64_t seed, std::uint64_t host) {
  return mix64(seed ^ mix64(host));
}

MultiRegionWorld::MultiRegionWorld(sim::ShardedSimulator& ssim,
                                   MultiRegionConfig config)
    : config_(std::move(config)) {
  assert(config_.regions >= 1 && config_.hosts_per_region >= 1);
  regions_.reserve(config_.regions);
  for (std::uint32_t r = 0; r < config_.regions; ++r) build_region(ssim, r);
  if (config_.regions >= 2) {
    wan_.reserve(config_.regions);
    for (std::uint32_t r = 0; r < config_.regions; ++r) build_ring(r);
  }
}

void MultiRegionWorld::build_region(sim::ShardedSimulator& ssim,
                                    std::uint32_t r) {
  auto region = std::make_unique<Region>();
  region->ctx = &ssim.context(r % ssim.shards());
  sim::Simulator& sim = region->ctx->sim();

  net::NetworkTraits lan = config_.lan;
  lan.name += "-" + std::to_string(r);
  region->lan = std::make_unique<net::EthernetNetwork>(
      sim, std::move(lan), host_seed(config_.seed, 0x1a70ull + r));
  region->lan->set_shard(region->ctx->shard());
  region->fabric = std::make_unique<netrms::NetRmsFabric>(sim, *region->lan);

  for (int i = 0; i < config_.hosts_per_region; ++i) {
    region->hosts.push_back(
        std::make_unique<Host>(sim, host_id(r, i), std::vector{region->fabric.get()}));
  }
  regions_.push_back(std::move(region));
}

void MultiRegionWorld::build_ring(std::uint32_t r) {
  const std::uint32_t next = (r + 1) % regions();
  Region& a = *regions_[r];
  Region& b = *regions_[next];

  net::NetworkTraits wan;
  wan.name = "wan-" + std::to_string(r);
  wan.trusted = true;
  wan.bits_per_second = config_.wan_bits_per_second;
  wan.propagation_delay =
      config_.wan_delay + static_cast<Time>(r) * config_.wan_delay_skew;

  auto link = std::make_unique<net::ShardLinkNetwork>(*a.ctx, *b.ctx, wan);
  const std::uint32_t index = static_cast<std::uint32_t>(wan_.size());
  link->attach_on(*a.ctx, a.hosts[0]->id, [this, r, index](net::Packet p) {
    on_wan_packet(r, index, std::move(p));
  });
  link->attach_on(*b.ctx, b.hosts[0]->id, [this, next, index](net::Packet p) {
    on_wan_packet(next, index, std::move(p));
  });
  wan_.push_back(std::move(link));
}

void MultiRegionWorld::start() {
  for (std::uint32_t r = 0; r < regions(); ++r) {
    Region& region = *regions_[r];
    sim::Simulator& sim = region.ctx->sim();
    const int n = config_.hosts_per_region;
    for (int i = 0; i < n; ++i) {
      Host& src = *region.hosts[i];
      Host& dst = *region.hosts[(i + 1) % n];

      const rms::PortId port = 100 + i;
      dst.ports.bind(port, &dst.inbox);
      Host* sink_host = &dst;
      sim::Simulator* psim = &sim;
      dst.inbox.set_handler([sink_host, psim](rms::Message m) {
        ++sink_host->frames_received;
        sink_host->trace ^=
            tuple_hash(psim->now(), m.source.host, m.size());
      });

      auto stream = src.st->create(frame_request(config_.frame_bytes),
                                   {dst.id, port});
      assert(stream.ok() && "frame stream admission failed");
      src.stream = std::move(stream).value();

      // Phase-stagger the sources by a per-host seed so no two hosts in
      // the world tick at the same instant (keeps interacting deliveries
      // time-distinct; the phase depends only on (seed, host id)).
      const Time phase = static_cast<Time>(
          host_seed(config_.seed, src.id) % static_cast<std::uint64_t>(
                                                config_.frame_interval));
      sim.at(phase, [this, r, i] { send_frame(r, i); });
    }
    if (!wan_.empty()) {
      const Time phase = static_cast<Time>(
          host_seed(config_.seed, 0xffff0000ull + r) %
          static_cast<std::uint64_t>(config_.ping_interval));
      sim.at(phase, [this, r] { send_ping(r); });
    }
  }
}

void MultiRegionWorld::send_frame(std::uint32_t r, int i) {
  Region& region = *regions_[r];
  Host& host = *region.hosts[i];
  if (host.stream == nullptr) return;
  rms::Message m;
  m.data = patterned_bytes(config_.frame_bytes, host.id);
  (void)host.stream->send(std::move(m));
  region.ctx->sim().after(config_.frame_interval,
                          [this, r, i] { send_frame(r, i); });
}

void MultiRegionWorld::send_ping(std::uint32_t r) {
  Region& region = *regions_[r];
  net::ShardLinkNetwork& link = *wan_[r];

  net::Packet p;
  p.src = region.hosts[0]->id;
  p.dst = regions_[(r + 1) % regions()]->hosts[0]->id;
  p.stream = kPingStream;
  p.seq = ++region.pings_sent;
  p.payload = patterned_bytes(config_.ping_bytes, p.seq);
  (void)link.send(std::move(p));

  region.ctx->sim().after(config_.ping_interval, [this, r] { send_ping(r); });
}

void MultiRegionWorld::on_wan_packet(std::uint32_t r, std::uint32_t index,
                                     net::Packet p) {
  Region& region = *regions_[r];
  region.wan_trace ^=
      tuple_hash(region.ctx->sim().now(), p.src, p.size() + p.stream);
  if (p.stream == kPingStream) {
    ++region.pings_received;
    net::Packet pong;
    pong.src = p.dst;
    pong.dst = p.src;
    pong.stream = kPongStream;
    pong.seq = p.seq;
    pong.payload = patterned_bytes(config_.ping_bytes / 2 + 1, p.seq);
    (void)wan_[index]->send(std::move(pong));
  } else {
    ++region.pongs_received;
  }
}

std::uint64_t MultiRegionWorld::trace_hash() const {
  // Combine per-host digests in host-id order (host ids are shard-count
  // invariant), with a non-commutative outer mix so hosts are
  // distinguishable.
  std::uint64_t h = mix64(config_.seed);
  for (const auto& region : regions_) {
    for (const auto& host : region->hosts) {
      h = mix64(h ^ mix64(host->id) ^ host->trace ^
                mix64(host->frames_received));
    }
    h = mix64(h ^ region->wan_trace ^ mix64(region->pings_received) ^
              mix64(region->pongs_received * 0x51ul));
  }
  return h;
}

std::uint64_t MultiRegionWorld::frames_received() const {
  std::uint64_t n = 0;
  for (const auto& region : regions_) {
    for (const auto& host : region->hosts) n += host->frames_received;
  }
  return n;
}

std::uint64_t MultiRegionWorld::pings_received() const {
  std::uint64_t n = 0;
  for (const auto& region : regions_) n += region->pings_received;
  return n;
}

std::uint64_t MultiRegionWorld::pongs_received() const {
  std::uint64_t n = 0;
  for (const auto& region : regions_) n += region->pongs_received;
  return n;
}

// ----------------------------------------------- internet-scale generators

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
                                     std::uint64_t buffer,
                                     net::Discipline discipline) {
  net::SimplexLink::Config c;
  c.bits_per_second = bps;
  c.propagation_delay = delay;
  c.bit_error_rate = 0.0;
  c.discipline = discipline;
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
      generated_traits("fattree", cfg.trunk_bps, cfg.trunk_delay,
                       cfg.buffer_bytes),
      cfg.seed, cfg.discipline);
  net::InternetNetwork& n = *topo.net;
  const auto trunk = link_config(cfg.trunk_bps, cfg.trunk_delay,
                                 cfg.buffer_bytes, cfg.discipline);
  const auto access = link_config(cfg.access_bps, cfg.access_delay,
                                  cfg.buffer_bytes, cfg.discipline);

  auto add_trunk = [&](InternetTopology::RouterId a,
                       InternetTopology::RouterId b) {
    n.add_trunk(a, b, trunk);
    topo.trunks.emplace_back(a, b);
  };

  // Core switches form region 0; pod p is region p + 1.
  topo.regions = static_cast<std::uint32_t>(cfg.k) + 1;
  for (int i = 0; i < half * half; ++i) {
    topo.core.push_back(n.add_router(cfg.processing_delay, 0));
    topo.router_region.push_back(0);
  }
  net::HostId next_host = 1;
  for (int pod = 0; pod < cfg.k; ++pod) {
    std::vector<InternetTopology::RouterId> pod_agg, pod_edge;
    for (int i = 0; i < half; ++i) {
      pod_agg.push_back(
          n.add_router(cfg.processing_delay, static_cast<std::uint32_t>(pod) + 1));
      topo.router_region.push_back(pod + 1);
    }
    for (int i = 0; i < half; ++i) {
      pod_edge.push_back(
          n.add_router(cfg.processing_delay, static_cast<std::uint32_t>(pod) + 1));
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
      for (int h = 0; h < cfg.hosts_per_edge; ++h) {
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
      generated_traits("wanmesh", cfg.inter_bps, cfg.inter_delay,
                       cfg.buffer_bytes),
      cfg.seed, cfg.discipline);
  net::InternetNetwork& n = *topo.net;
  if (cfg.use_areas) n.enable_areas(true);
  const auto intra = link_config(cfg.intra_bps, cfg.intra_delay,
                                 cfg.buffer_bytes, cfg.discipline);
  const auto inter = link_config(cfg.inter_bps, cfg.inter_delay,
                                 cfg.buffer_bytes, cfg.discipline);

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
      members[r].push_back(n.add_router(cfg.processing_delay, r));
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
  const auto host_access = link_config(cfg.intra_bps, cfg.intra_delay,
                                       cfg.buffer_bytes, cfg.discipline);
  net::HostId next_host = 1;
  for (std::uint32_t r = 0; r < cfg.regions; ++r) {
    for (int h = 0; h < cfg.hosts_per_region; ++h) {
      n.attach_host(next_host, members[r][rng.next() % members[r].size()],
                    host_access);
      topo.hosts.push_back(next_host);
      ++next_host;
    }
  }
  return topo;
}

}  // namespace dash::workload
