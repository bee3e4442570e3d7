// The per-host path manager (DESIGN.md §11).
//
// Sits between the subtransport layer and the registered network RMS
// fabrics. §3.1 of the paper allows a host several networks; the ST picks
// one at creation time, but nothing in the seed stack reacted when the
// chosen network later died. The path manager closes that gap:
//
//   * it probes every (managed peer, network) pair over the ST's networks
//     (SubtransportLayer::networks) and scores the candidate networks per
//     peer — a static admission/cost component (headroom) plus live health
//     from probe RTTs and timeouts. A probe is an ST control message
//     (SubtransportLayer::probe): the manager opens no network RMS of its
//     own, and every peer's ST answers, managed or not;
//   * when a stream's path dies it transparently fails the stream over to
//     the best alternate network. Two triggers: the stream's network RMS
//     fails (on_channel_failed, the one way a network's death reaches the
//     manager), or unhealthy_after consecutive probes go unanswered on its
//     network (a silent outage). The move is
//     SubtransportLayer::rebind_stream: §2.4 negotiation is re-run against
//     the stream's original acceptable parameters, unacknowledged
//     reliable-stream messages are replayed from the ST's bounded handoff
//     buffer (no loss, duplication, or reordering), and a downgrade
//     notification fires upward when only weaker acceptable parameters fit
//     on the new network.
//
// The manager attaches to the ST as a st::StreamObserver; with no manager
// attached the stack behaves exactly as before the subsystem existed.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "netrms/fabric.h"
#include "path/health.h"
#include "rms/rms.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "st/st.h"
#include "telemetry/metrics.h"

namespace dash::path {

using rms::HostId;

struct PathConfig {
  /// Master switch, read by node::DashNode: a host gets a manager only
  /// when this is set (and it joins two or more networks).
  bool enabled = true;

  /// Probe pacing: one ping per (managed peer, attached network) every
  /// interval; a ping unanswered after `probe_timeout` counts one timeout,
  /// and `unhealthy_after` consecutive timeouts mark the path unhealthy.
  Time probe_interval = msec(200);
  Time probe_timeout = msec(150);
  int unhealthy_after = 3;
};

class PathManager final : public st::StreamObserver {
 public:
  struct Stats {
    std::uint64_t probes_sent = 0;
    std::uint64_t pongs_received = 0;
    std::uint64_t probe_timeouts = 0;
    std::uint64_t failovers = 0;           ///< successful stream rebinds
    std::uint64_t failover_failures = 0;   ///< no alternate network would take it
    std::uint64_t death_failovers = 0;     ///< triggered by channel failure
  };

  /// Attaches to `st` as its stream observer. Destroy the manager before
  /// the ST (DashNode declares it after it).
  PathManager(sim::Simulator& sim, st::SubtransportLayer& st, PathConfig config = {});
  ~PathManager() override;
  PathManager(const PathManager&) = delete;
  PathManager& operator=(const PathManager&) = delete;

  /// Composite path score for moving a stream to `peer` over `fabric`:
  /// higher is better. A path with no answered probe scores below every
  /// answered one and above any path with a strike; a down network scores
  /// -inf for practical purposes.
  double score(HostId peer, const netrms::NetRmsFabric& fabric) const;

  /// Probe health for one (peer, fabric) direction; nullptr if the pair
  /// was never probed.
  const ProbeHealth* probe_health(HostId peer,
                                  const netrms::NetRmsFabric& fabric) const;

  const Stats& stats() const { return stats_; }
  const PathConfig& config() const { return config_; }

  /// Failover latency (trigger -> peer re-confirmation).
  const telemetry::Histogram& failover_latency() const { return failover_latency_; }

  void set_trace(sim::Trace* trace) { trace_ = trace; }

  // st::StreamObserver hooks (called by the ST; not part of the API).
  void on_stream_created(st::StRms& rms) override;
  void on_stream_released(st::StRms& rms) override;
  bool on_channel_failed(st::StRms& rms, const Error& e) override;
  void on_stream_rebound(st::StRms& rms) override;
  void on_probe_reply(HostId peer, netrms::NetRmsFabric& fabric,
                      std::uint64_t seq) override;

 private:
  struct ManagedStream {
    std::uint64_t id = 0;
    HostId peer = 0;
    Time cooldown_until = 0;
    Time failover_started = -1;    ///< set at rebind, cleared at rebound
  };

  void tick();
  void arm_tick();
  void send_probe(HostId peer, std::size_t fabric_idx);
  bool try_failover(ManagedStream& ms, const char* reason);
  /// Position of `f` in the ST's networks; kNoFabric if the ST has none such.
  std::size_t fabric_index(const netrms::NetRmsFabric* f) const;
  /// Records a trace event; `detail` builds the detail string and runs only
  /// when a trace is attached and enabled.
  template <typename Detail>
  void trace(const char* category, Detail&& detail) {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->record(sim_.now(), category, std::forward<Detail>(detail)());
    }
  }

  static constexpr std::size_t kNoFabric = static_cast<std::size_t>(-1);

  sim::Simulator& sim_;
  st::SubtransportLayer& st_;
  PathConfig config_;
  // Ordered maps: tick() iterates these, and iteration order must be
  // deterministic for reproducible runs.
  /// Keyed by (peer, position in the ST's networks).
  std::map<std::pair<HostId, std::size_t>, ProbeHealth> probes_;
  std::map<std::uint64_t, ManagedStream> streams_;
  sim::TimerHandle tick_timer_;
  bool tick_armed_ = false;  ///< ticks run only while streams are managed
  Stats stats_;
  telemetry::Histogram failover_latency_;
  sim::Trace* trace_ = nullptr;
};

}  // namespace dash::path
