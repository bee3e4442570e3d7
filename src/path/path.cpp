#include "path/path.h"

#include <algorithm>
#include <set>
#include <vector>

namespace dash::path {
namespace {

/// Minimum spacing between failover attempts for one stream, so a flapping
/// network cannot make a stream ping-pong every tick. Channel death
/// overrides the cooldown (staying is guaranteed loss).
constexpr Time kFailoverCooldown = msec(500);

/// Smoothing for the probe RTT estimate.
constexpr double kRttEwmaAlpha = 0.3;

/// Score of a path with no RTT sample yet (never probed, or no ping
/// answered): below any answered path (an RTT under 500 s) and above any
/// path with a strike (-1e9 each).
constexpr double kUnknownRttPenalty = 5e8;

}  // namespace

PathManager::PathManager(sim::Simulator& sim, st::SubtransportLayer& st, PathConfig config)
    : sim_(sim), st_(st), config_(config) {
  st_.set_stream_observer(this);
  // The probe tick is armed on demand (first managed stream) and stops
  // re-arming once the last stream is released, so an idle manager leaves
  // the event queue empty and sim::Simulator::run() can terminate.
}

PathManager::~PathManager() {
  sim_.cancel(tick_timer_);
  if (st_.stream_observer() == this) st_.set_stream_observer(nullptr);
}

// ------------------------------------------------------------------ lookup

std::size_t PathManager::fabric_index(const netrms::NetRmsFabric* f) const {
  const auto& fabrics = st_.networks();
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    if (fabrics[i] == f) return i;
  }
  return kNoFabric;
}

const ProbeHealth* PathManager::probe_health(HostId peer,
                                             const netrms::NetRmsFabric& fabric) const {
  const std::size_t idx = fabric_index(&fabric);
  if (idx == kNoFabric) return nullptr;
  auto it = probes_.find({peer, idx});
  return it == probes_.end() ? nullptr : &it->second;
}

// ----------------------------------------------------------------- scoring

double PathManager::score(HostId peer, const netrms::NetRmsFabric& fabric) const {
  const std::size_t idx = fabric_index(&fabric);
  if (idx == kNoFabric) return -1e18;
  if (fabric.network().down()) return -1e18;
  double s = 0.0;
  auto it = probes_.find({peer, idx});
  if (it != probes_.end()) {
    const ProbeHealth& h = it->second;
    // Each outstanding timeout is worth more than any RTT difference.
    // Within a health class, lower smoothed RTT wins.
    s -= 1e9 * h.consecutive_timeouts;
    s -= h.ewma_rtt_ns >= 0 ? h.ewma_rtt_ns / 1e3 : kUnknownRttPenalty;
  } else {
    s -= kUnknownRttPenalty;  // never probed
  }
  // Static admission headroom as the final tie-break (more spare bps =
  // better home for one more stream).
  s += fabric.admission().bps_headroom() / 1e9;
  return s;
}

// ------------------------------------------------------------------ probes

void PathManager::send_probe(HostId peer, std::size_t fabric_idx) {
  ProbeHealth& h = probes_[{peer, fabric_idx}];
  if (h.outstanding_seq != 0) return;  // previous ping not yet resolved
  if (!st_.probe(peer, *st_.networks()[fabric_idx], h.next_seq)) return;
  h.outstanding_seq = h.next_seq++;
  h.outstanding_sent_at = sim_.now();
  ++h.probes_sent;
  ++stats_.probes_sent;
}

void PathManager::on_probe_reply(HostId peer, netrms::NetRmsFabric& fabric,
                                 std::uint64_t seq) {
  auto it = probes_.find({peer, fabric_index(&fabric)});
  if (it == probes_.end()) return;  // a pair never probed
  ProbeHealth& h = it->second;
  if (h.outstanding_seq == 0 || seq != h.outstanding_seq) return;  // stale
  h.outstanding_seq = 0;
  // The answer proves the path alive and folds one RTT sample in.
  const auto sample = static_cast<double>(sim_.now() - h.outstanding_sent_at);
  h.ewma_rtt_ns = h.ewma_rtt_ns < 0 ? sample
                                    : kRttEwmaAlpha * sample +
                                          (1.0 - kRttEwmaAlpha) * h.ewma_rtt_ns;
  h.consecutive_timeouts = 0;
  ++h.pongs_received;
  ++stats_.pongs_received;
}

// -------------------------------------------------------------- event loop

void PathManager::arm_tick() {
  // Nothing to monitor without a managed stream, and nowhere to fail over
  // with fewer than two networks — in both cases stay quiescent so an
  // event-driven sim::Simulator::run() can drain and terminate.
  if (tick_armed_ || streams_.empty() || st_.networks().size() < 2) return;
  tick_armed_ = true;
  tick_timer_ = sim_.timer_after(config_.probe_interval, [this] { tick(); });
}

void PathManager::tick() {
  tick_armed_ = false;
  const Time now = sim_.now();

  // 1. Resolve timed-out probes.
  for (auto& [key, h] : probes_) {
    (void)key;
    if (h.outstanding_seq != 0 && now - h.outstanding_sent_at >= config_.probe_timeout) {
      h.outstanding_seq = 0;
      ++h.consecutive_timeouts;
      ++stats_.probe_timeouts;
    }
  }

  // 2. Probe every (managed peer, attached network) pair.
  std::set<HostId> peers;
  for (const auto& [id, ms] : streams_) {
    (void)id;
    peers.insert(ms.peer);
  }
  const auto& fabrics = st_.networks();
  for (HostId peer : peers) {
    for (std::size_t i = 0; i < fabrics.size(); ++i) {
      if (fabrics[i]->network().attached(peer)) send_probe(peer, i);
    }
  }

  // 3. Fail over every stream whose current path went silent:
  // `unhealthy_after` consecutive probes on it went unanswered. A network
  // that goes down fails the stream's channel, which on_channel_failed
  // handles as it happens.
  for (auto& [id, ms] : streams_) {
    st::StRms* s = st_.find_stream(id);
    if (s == nullptr || s->rebinding() || now < ms.cooldown_until) continue;
    auto pit = probes_.find({ms.peer, fabric_index(st_.stream_fabric(id))});
    if (pit != probes_.end() &&
        pit->second.consecutive_timeouts >= config_.unhealthy_after) {
      (void)try_failover(ms, "probe-timeout");
    }
  }

  arm_tick();
}

// ---------------------------------------------------------------- failover

bool PathManager::try_failover(ManagedStream& ms, const char* reason) {
  netrms::NetRmsFabric* current = st_.stream_fabric(ms.id);
  struct Candidate {
    std::size_t idx;
    double score;
  };
  std::vector<Candidate> candidates;
  const auto& fabrics = st_.networks();
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    if (fabrics[i] == current) continue;
    if (!fabrics[i]->network().attached(ms.peer)) continue;
    candidates.push_back(Candidate{i, score(ms.peer, *fabrics[i])});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.score > b.score;
                   });
  for (const Candidate& c : candidates) {
    ms.failover_started = sim_.now();
    if (st_.rebind_stream(ms.id, *fabrics[c.idx]).ok()) {
      ++stats_.failovers;
      ms.cooldown_until = sim_.now() + kFailoverCooldown;
      trace("path.failover", [&] {
        return "stream " + std::to_string(ms.id) + " -> " +
               fabrics[c.idx]->traits().name + " (" + reason + ")";
      });
      return true;
    }
  }
  ms.failover_started = -1;
  ++stats_.failover_failures;
  ms.cooldown_until = sim_.now() + kFailoverCooldown;
  trace("path.failover", [&] {
    return "stream " + std::to_string(ms.id) + ": no alternate network accepted it (" +
           reason + ")";
  });
  return false;
}

// ------------------------------------------------------- StreamObserver

void PathManager::on_stream_created(st::StRms& rms) {
  ManagedStream ms;
  ms.id = rms.id();
  ms.peer = rms.peer();
  streams_.emplace(ms.id, ms);
  arm_tick();
}

void PathManager::on_stream_released(st::StRms& rms) { streams_.erase(rms.id()); }

bool PathManager::on_channel_failed(st::StRms& rms, const Error& e) {
  (void)e;
  auto it = streams_.find(rms.id());
  if (it == streams_.end()) return false;
  // Channel death overrides the cooldown: staying put is guaranteed loss.
  const bool moved = try_failover(it->second, "channel-failure");
  if (moved) ++stats_.death_failovers;
  return moved;
}

void PathManager::on_stream_rebound(st::StRms& rms) {
  auto it = streams_.find(rms.id());
  if (it == streams_.end()) return;
  ManagedStream& ms = it->second;
  if (ms.failover_started >= 0) {
    const auto latency = static_cast<std::uint64_t>(sim_.now() - ms.failover_started);
    failover_latency_.observe(latency);
    ms.failover_started = -1;
  }
  trace("path.rebound",
        [&] { return "stream " + std::to_string(rms.id()) + " re-established"; });
}

}  // namespace dash::path
