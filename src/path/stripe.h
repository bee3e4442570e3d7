// Multi-path striping (DESIGN.md §12).
//
// A StripedStream splits one reliable stream across several admitted
// networks: every eligible fabric gets a pinned ST substream, and each
// client message is dispatched to one subpath by smoothed-RTT-weighted
// round robin. The receiver's StripeEndpoint reassembles the global
// sequence behind a reorder window and delivers exactly once, in order.
//
// ST reliable streams do not retransmit in steady state (loss recovery is
// handoff replay at failover), so the stripe carries its own ARQ: every
// dispatch requests an ST fast ack tagged with the global sequence number,
// and a send unacknowledged past the subpath's RTO (RACK-style: time
// against the smoothed ack RTT, not duplicate counting) is retransmitted
// on the best surviving subpath. A subpath whose sends keep expiring is
// declared dead — the paper's separation of streams from fabrics means a
// path death degrades bandwidth instead of stalling or rebinding.
//
// Wire format on each substream (header precedes the client payload):
//   u64 stripe id | u64 global sequence | u64 target port |
//   i64 client sent_at | payload
// The stripe id distinguishes concurrent StripedStreams from the same
// host (each starts its global sequence at 1): the receiver keys its
// dedup/ordering state by (source host, stripe id).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cc/rack.h"
#include "path/path.h"
#include "rms/rms.h"
#include "sim/simulator.h"
#include "st/st.h"
#include "util/time.h"

namespace dash::path {

/// Well-known port the StripeEndpoint binds for striped traffic. (1 and 2
/// are the ST control/data ports, 3 is RKOM, 4 the path probes.)
inline constexpr rms::PortId kStripePort = 5;

/// Stripe header bytes prepended to every client payload.
inline constexpr std::size_t kStripeHeaderBytes = 8 + 8 + 8 + 8;

/// Sender side: one client-facing RMS fanned out over pinned substreams.
class StripedStream final : public rms::Rms {
 public:
  struct Stats {
    std::uint64_t striped = 0;         ///< client messages dispatched
    std::uint64_t retransmits = 0;     ///< RTO or subpath-death re-sends
    std::uint64_t rack_retransmits = 0;///< of which: RACK-marked early losses
    std::uint64_t acks = 0;            ///< fast acks consumed
    std::uint64_t subpath_deaths = 0;  ///< subpaths declared dead
    std::uint64_t send_errors = 0;     ///< substream sends that failed outright
    std::uint64_t pace_deferred = 0;   ///< re-sends pushed to a later tick
  };

  /// Opens one substream per eligible fabric toward `target` (host + the
  /// client port striped traffic should reach behind the peer's
  /// StripeEndpoint). Fails only when no network admits any substream.
  /// When `pm` is given, every substream is pinned: the stripe, not the
  /// path manager, owns subpath failure.
  static Result<std::unique_ptr<StripedStream>> create(
      st::SubtransportLayer& st, PathManager* pm, const rms::Request& request,
      const rms::Label& target);

  ~StripedStream() override;

  /// Identifies this stripe on the wire; unique per sending host.
  std::uint64_t stripe_id() const { return stripe_id_; }

  std::size_t subpaths() const { return subpaths_.size(); }
  std::size_t live_subpaths() const;
  std::uint64_t sent_on(std::size_t i) const { return subpaths_.at(i).sent; }
  double subpath_rtt_ns(std::size_t i) const { return subpaths_.at(i).ewma_rtt_ns; }
  std::size_t inflight() const { return unacked_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Subpath {
    std::unique_ptr<rms::Rms> stream;
    st::StRms* st_rms = nullptr;  ///< borrowed view of `stream`
    netrms::NetRmsFabric* fabric = nullptr;
    double ewma_rtt_ns = 0.0;
    double credit = 0.0;          ///< weighted-round-robin accumulator
    std::uint64_t sent = 0;
    int expired_rounds = 0;       ///< consecutive scan rounds with an expiry
    bool dead = false;
    cc::RackState rack;           ///< newest delivered transmission (RACK point)
    double ack_rate_Bps = 0.0;    ///< smoothed delivery rate (pacing budget)
    Time last_ack_at = -1;
  };
  struct Unacked {
    Buffer payload;               ///< original client payload (ref-counted)
    Time client_sent_at = -1;
    std::size_t subpath = 0;      ///< last transmission's subpath
    Time sent_at = -1;            ///< last transmission time
    int retx = 0;
  };

  StripedStream(st::SubtransportLayer& st, PathManager* pm, rms::Params params,
                rms::Label target);

  Status do_send(rms::Message msg, Time transmission_deadline) override;
  void do_close() override;

  Status dispatch(std::uint64_t seq, Unacked& u, std::size_t subpath);
  std::size_t pick_subpath(std::size_t avoid);
  Time rto_for(const Subpath& sp) const;
  void on_ack(std::size_t idx, std::uint64_t seq);
  void rack_scan(std::size_t idx);
  bool pace_allow(std::size_t bytes);
  void refill_pace_budget();
  void on_subpath_failed(std::size_t idx);
  void kill_subpath(std::size_t idx, const char* why);
  void redistribute_from(std::size_t idx);
  void tick();
  void arm_tick();

  st::SubtransportLayer& st_;
  sim::Simulator& sim_;
  PathManager* pm_;
  rms::Label target_;
  std::vector<Subpath> subpaths_;
  // Ordered map: the retransmit scan and redistribution iterate it, and
  // iteration order must be deterministic for reproducible runs.
  std::map<std::uint64_t, Unacked> unacked_;
  std::uint64_t stripe_id_ = 0;
  std::uint64_t next_seq_ = 1;
  sim::TimerHandle tick_timer_;
  bool tick_armed_ = false;
  double pace_budget_ = 0.0;  ///< bytes of recovery allowed until next tick
  Stats stats_;
};

/// Receiver side: binds kStripePort, restores the global sequence, and
/// delivers each payload exactly once, in order, to its target port.
class StripeEndpoint {
 public:
  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;
    std::uint64_t duplicates = 0;        ///< retransmit copies discarded
    std::uint64_t buffered = 0;          ///< arrived ahead of a gap
    std::uint64_t window_overflow = 0;   ///< reorder window full: dropped
    std::uint64_t malformed = 0;
  };

  StripeEndpoint(sim::Simulator& sim, rms::PortRegistry& ports);
  ~StripeEndpoint();
  StripeEndpoint(const StripeEndpoint&) = delete;
  StripeEndpoint& operator=(const StripeEndpoint&) = delete;

  const Stats& stats() const { return stats_; }

 private:
  struct PeerState {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, rms::Message> buffer;  ///< by global seq
  };
  void on_message(rms::Message msg);

  sim::Simulator& sim_;
  rms::PortRegistry& ports_;
  rms::Port port_;
  /// Keyed by (source host, stripe id): two StripedStreams from the same
  /// host carry independent global sequences and must not share state.
  std::map<std::pair<rms::HostId, std::uint64_t>, PeerState> peers_;
  Stats stats_;
};

}  // namespace dash::path
