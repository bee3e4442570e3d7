#include "workload/scenario.h"

#include <cassert>

#include "util/rng.h"

namespace dash::workload {
namespace {

/// Payload of every flash-crowd packet.
constexpr std::size_t kPacketBytes = 512;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FlashCrowd::FlashCrowd(sim::Simulator& sim, InternetTopology& topo,
                       FlashCrowdConfig config)
    : sim_(sim), topo_(topo), config_(config) {
  assert(config_.targets >= 1);
  assert(static_cast<std::size_t>(config_.sources + config_.targets) <=
         topo_.hosts.size());
}

void FlashCrowd::start() {
  stop_at_ = sim_.now() + config_.duration;
  const std::size_t n = topo_.hosts.size();
  // Targets are the tail hosts; attach the delivery fold to each.
  for (int t = 0; t < config_.targets; ++t) {
    const net::HostId target = topo_.hosts[n - 1 - t];
    topo_.net->attach(target, [this](net::Packet p) {
      ++delivered_;
      trace_ ^= mix64(sim_.now() * 0x100000001b3ull ^ mix64(p.src) ^ p.size());
    });
  }
  for (int s = 0; s < config_.sources; ++s) {
    const net::HostId target =
        topo_.hosts[n - 1 - (s % config_.targets)];
    const std::uint64_t stream = mix64(config_.seed ^ (0x5CEAull << 32) ^
                                       static_cast<std::uint64_t>(s));
    // Phase-stagger each source inside its first interval so the crowd
    // interleaves instead of sending in lockstep.
    const Time phase = static_cast<Time>(
        mix64(config_.seed ^ static_cast<std::uint64_t>(s)) %
        static_cast<std::uint64_t>(config_.interval ? config_.interval : 1));
    sim_.after(phase, [this, s, target, stream] { send_one(s, target, stream); });
  }
}

void FlashCrowd::send_one(int source, net::HostId target, std::uint64_t stream) {
  if (sim_.now() >= stop_at_) return;
  net::Packet p;
  p.src = topo_.hosts[static_cast<std::size_t>(source)];
  p.dst = target;
  p.stream = stream;
  p.payload = Bytes(kPacketBytes, std::byte{0xC7});
  ++sent_;
  topo_.net->send(std::move(p));
  sim_.after(config_.interval,
             [this, source, target, stream] { send_one(source, target, stream); });
}

RegionalFailure::RegionalFailure(sim::Simulator& sim, InternetTopology& topo,
                                 RegionalFailureConfig config)
    : sim_(sim), topo_(topo), config_(config),
      uplinks_(topo.region_uplinks(config.region)) {}

void RegionalFailure::start() {
  sim_.after(config_.down_at, [this] {
    for (const auto& [a, b] : uplinks_) topo_.net->set_trunk_down(a, b, true);
  });
  if (config_.up_at > config_.down_at) {
    sim_.after(config_.up_at, [this] {
      for (const auto& [a, b] : uplinks_) topo_.net->set_trunk_down(a, b, false);
    });
  }
}

}  // namespace dash::workload
