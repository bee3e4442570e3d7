// The per-host path manager (DESIGN.md §11).
//
// Sits between the subtransport layer and the registered network RMS
// fabrics. §3.1 of the paper allows a host several networks; the ST picks
// one at creation time, but nothing in the seed stack reacted when the
// chosen network later died or stopped honouring its guarantees. The path
// manager closes that gap:
//
//   * it enumerates and scores the candidate networks per peer — a static
//     admission/cost component (headroom) plus live health from probe
//     RTTs, guarantee-ledger verdicts, and fabric failure notifications;
//   * on network-RMS death or sustained guarantee violation it
//     transparently fails the affected ST RMS over to the best alternate
//     network: §2.4 negotiation is re-run against the stream's original
//     acceptable parameters, unacknowledged reliable-stream messages are
//     replayed from the ST's bounded handoff buffer (no loss, duplication,
//     or reordering), and a downgrade notification fires upward when only
//     weaker acceptable parameters fit on the new network;
//   * it exports "path.*" telemetry (see telemetry::collect_path).
//
// The manager attaches to the ST as a st::StreamObserver; with no manager
// attached the stack behaves exactly as before the subsystem existed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "netrms/fabric.h"
#include "path/health.h"
#include "path/wire.h"
#include "rms/rms.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "st/st.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"

namespace dash::path {

using rms::HostId;

/// Upgrade-back waits for this many consecutive clean probe ticks on the
/// home path before migrating back (see PathConfig::upgrade_back).
inline constexpr int kUpgradeAfter = 5;

struct PathConfig {
  /// Master switch: a disabled manager binds nothing, probes nothing, and
  /// never attaches to the ST.
  bool enabled = true;

  /// Probe pacing: one ping per (managed peer, attached network) every
  /// interval; a ping unanswered after `probe_timeout` counts one timeout,
  /// and `unhealthy_after` consecutive timeouts mark the path unhealthy.
  Time probe_interval = msec(200);
  Time probe_timeout = msec(150);
  int unhealthy_after = 3;

  /// Upgrade-back: after a failover away from the network the stream was
  /// created on, migrate back once the home path answers probes cleanly
  /// for kUpgradeAfter consecutive ticks. Uses the same staged-commit
  /// machinery (make-before-break, DESIGN.md §12), so the return trip is
  /// hitless too.
  bool upgrade_back = true;
};

class PathManager final : public st::StreamObserver {
 public:
  struct Stats {
    std::uint64_t probes_sent = 0;
    std::uint64_t pongs_sent = 0;
    std::uint64_t pongs_received = 0;
    std::uint64_t probe_timeouts = 0;
    std::uint64_t fabric_failures = 0;     ///< fabric-level death notifications
    std::uint64_t failovers = 0;           ///< successful stream rebinds
    std::uint64_t failover_failures = 0;   ///< no alternate network would take it
    std::uint64_t death_failovers = 0;     ///< triggered by channel failure
    std::uint64_t violation_failovers = 0; ///< triggered by ledger verdicts
    std::uint64_t downgrades = 0;          ///< rebinds with weaker actual params
    std::uint64_t prepares = 0;            ///< replacement channels staged
    std::uint64_t prepare_failures = 0;    ///< staging attempts that failed
    std::uint64_t hitless_switches = 0;    ///< failovers committed onto a staged channel
    std::uint64_t staged_aborts = 0;       ///< staged channels torn down (path recovered)
    std::uint64_t upgrades_back = 0;       ///< migrations back to the home network
    std::uint64_t data_ack_samples = 0;    ///< ST data-ack RTTs fed into path health
    std::uint64_t probes_suppressed = 0;   ///< probes skipped: path carrying traffic
    std::uint64_t pressure_sheds = 0;      ///< pre-violation delay-pressure migrations
  };

  /// Attaches to `st` (as its stream observer, when enabled) and binds the
  /// probe port in `ports`. Must outlive neither; destroy the manager
  /// before the ST and registry (DashNode declares it after them).
  PathManager(sim::Simulator& sim, st::SubtransportLayer& st,
              rms::PortRegistry& ports, PathConfig config = {});
  ~PathManager() override;
  PathManager(const PathManager&) = delete;
  PathManager& operator=(const PathManager&) = delete;

  /// Registers a fabric as a candidate path. Call once per network the
  /// host joined, in the same order as SubtransportLayer::add_network.
  void add_network(netrms::NetRmsFabric& fabric);

  /// Attaches the guarantee ledger consulted for sustained-violation
  /// failovers; nullptr detaches. The ledger must outlive the manager.
  void set_ledger(telemetry::GuaranteeLedger* ledger) { ledger_ = ledger; }

  /// Binds a managed stream to its ledger account so violation verdicts
  /// are evaluated for it (windowed per probe tick, not cumulative).
  void watch_stream(std::uint64_t stream_id, std::uint64_t account_id);

  /// Composite path score for creating/moving a stream to `peer` over
  /// `fabric`: higher is better. Unknown health scores mildly negative;
  /// a down network scores -inf for practical purposes.
  double score(HostId peer, const netrms::NetRmsFabric& fabric) const;

  /// Probe health for one (peer, fabric) direction; nullptr if no probe
  /// or inbound ping has touched the pair yet.
  const ProbeHealth* probe_health(HostId peer,
                                  const netrms::NetRmsFabric& fabric) const;

  /// The candidate fabrics, in add_network order (indexes are positions).
  const std::vector<netrms::NetRmsFabric*>& networks() const { return fabrics_; }
  const Stats& stats() const { return stats_; }
  const PathConfig& config() const { return config_; }
  HostId host() const { return host_; }
  std::size_t managed_streams() const { return streams_.size(); }

  /// Failover latency (trigger -> peer re-confirmation) and probe RTT
  /// distributions, always maintained; set_metrics additionally mirrors
  /// them into a registry as "path.<host>.*_ns".
  const telemetry::Histogram& failover_latency() const { return failover_latency_; }
  const telemetry::Histogram& probe_rtt() const { return probe_rtt_; }
  void set_metrics(telemetry::MetricsRegistry* m);

  void set_trace(sim::Trace* trace) { trace_ = trace; }

  // st::StreamObserver hooks (called by the ST; not part of the API).
  void on_stream_created(st::StRms& rms) override;
  void on_stream_released(st::StRms& rms) override;
  bool on_channel_failed(st::StRms& rms, const Error& e) override;
  void on_stream_rebound(st::StRms& rms, bool downgraded) override;
  void on_rebind_prepared(st::StRms& rms) override;
  void on_data_ack(HostId peer, netrms::NetRmsFabric* fabric, Time rtt) override;
  netrms::NetRmsFabric* preferred_control_fabric(
      HostId peer, netrms::NetRmsFabric* current) override;
  double fabric_penalty(HostId peer, netrms::NetRmsFabric& fabric) override;

 private:
  struct ManagedStream {
    std::uint64_t id = 0;
    HostId peer = 0;
    std::uint64_t account_id = 0;  ///< 0 = no ledger binding
    std::uint64_t last_delivered = 0;
    std::uint64_t last_misses = 0;
    int bad_verdicts = 0;          ///< consecutive bad windowed verdicts
    std::uint64_t window_misses = 0;  ///< misses in the last verdict window
    int pressure_strikes = 0;      ///< consecutive delay-pressure windows
    telemetry::Histogram delay_snapshot;  ///< ledger delay_ns at last tick
    Time cooldown_until = 0;
    Time failover_started = -1;    ///< set at rebind, cleared at rebound
    std::size_t home_fabric = static_cast<std::size_t>(-1);  ///< created on
    int home_healthy_ticks = 0;    ///< consecutive clean ticks while away
    bool upgrade_pending = false;  ///< current staging targets the home path
  };

  void tick();
  void arm_tick();
  void send_probe(HostId peer, std::size_t fabric_idx);
  void on_probe_message(rms::Message msg);
  void on_fabric_failure(std::size_t fabric_idx);
  bool try_failover(ManagedStream& ms, const char* reason);
  /// Make-before-break staging: pre-negotiate a channel on the best
  /// alternate to `cur` (the stream's current fabric index).
  void stage_replacement(ManagedStream& ms, std::size_t cur);
  /// Upgrade-back evaluation for one stream, run per tick while healthy.
  void consider_upgrade(ManagedStream& ms, std::size_t cur, Time now);
  bool windowed_verdict_bad(ManagedStream& ms);
  /// True when the last window's delay p95 crossed kShedThreshold of the
  /// stream's contracted bound without yet violating it (window miss-free).
  bool delay_pressure(ManagedStream& ms);
  bool recent_failure(const ProbeHealth& h) const;
  rms::Rms* ensure_probe_channel(ProbeHealth& h, HostId peer, std::size_t fabric_idx);
  std::size_t fabric_index(const netrms::NetRmsFabric* f) const;  ///< npos if unknown
  std::size_t fabric_index_by_name(const std::string& name) const;
  void trace(const char* category, std::string detail) {
    if (trace_ != nullptr) trace_->record(sim_.now(), category, std::move(detail));
  }

  static constexpr std::size_t kNoFabric = static_cast<std::size_t>(-1);

  sim::Simulator& sim_;
  st::SubtransportLayer& st_;
  rms::PortRegistry& ports_;
  PathConfig config_;
  HostId host_;
  rms::Port probe_port_;
  std::vector<netrms::NetRmsFabric*> fabrics_;
  std::vector<std::uint64_t> listener_tokens_;  ///< parallel to fabrics_
  telemetry::GuaranteeLedger* ledger_ = nullptr;
  // Ordered maps: tick() iterates these, and iteration order must be
  // deterministic for reproducible runs.
  std::map<std::pair<HostId, std::size_t>, ProbeHealth> probes_;
  std::map<std::uint64_t, ManagedStream> streams_;
  sim::TimerHandle tick_timer_;
  bool tick_armed_ = false;  ///< ticks run only while streams are managed
  Stats stats_;
  telemetry::Histogram failover_latency_;
  telemetry::Histogram probe_rtt_;
  telemetry::Histogram* probe_rtt_hist_ = nullptr;      ///< registry mirror
  telemetry::Histogram* failover_latency_hist_ = nullptr;
  sim::Trace* trace_ = nullptr;
};

}  // namespace dash::path
