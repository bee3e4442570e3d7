// A store-and-forward internetwork of gateways.
//
// Hosts attach to gateways (routers) over access links; gateways are joined
// by trunk links and forward hop by hop along shortest paths (§3.1, §4.4).
// Routes come from one hop-count table per destination gateway, rebuilt
// from scratch by BFS over the up trunks on the first lookup after any
// topology change; among equally short next hops the lowest router id
// wins, so forwarding is deterministic and a flow never splits. Every link
// output is a deadline/FIFO/priority queue with finite buffering and
// optional per-stream reservations — the substrate for the paper's
// congestion-control claim: "if packet queueing in an internetwork gateway
// is done using RMS-specified deadlines, then a low-delay packet can be
// sent before high-delay packets" (§2.5), and RMS capacity protects
// gateway buffers where TCP's window does not (§4.4).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "util/rng.h"

namespace dash::net {

class InternetNetwork final : public Network {
 public:
  using RouterId = std::uint32_t;

  InternetNetwork(sim::Simulator& sim, NetworkTraits traits, std::uint64_t seed,
                  Discipline discipline = Discipline::kDeadline);

  /// Adds a gateway. `processing_delay` is charged per forwarded packet.
  RouterId add_router(Time processing_delay = usec(50));

  /// Joins two gateways with a pair of simplex trunk links.
  void add_trunk(RouterId a, RouterId b, SimplexLink::Config config);

  /// Declares that `host` hangs off `router` over the given access link.
  void attach_host(HostId host, RouterId router, SimplexLink::Config config);

  // Network interface --------------------------------------------------
  void attach(HostId host, PacketSink sink) override;
  bool attached(HostId host) const override;
  bool send(Packet p) override;
  bool reserve_stream(std::uint64_t stream, HostId src, HostId dst,
                      std::uint64_t bytes) override;
  void release_stream(std::uint64_t stream) override;

  /// Failure injection on a single trunk (both directions). The next
  /// lookup rebuilds the routes around (or back across) the trunk.
  void set_trunk_down(RouterId a, RouterId b, bool down);

  /// ICMP-source-quench-style congestion signalling (RFC 896), which the
  /// paper calls "an ad hoc and often ineffective solution" (§4.4): when a
  /// gateway queue drops a packet, a small quench packet is sent back to
  /// the source. Used by the TCP-like baseline; RMS stacks leave it off.
  void enable_source_quench(bool on) { source_quench_ = on; }

  /// Stream id of quench packets delivered to sources.
  static constexpr std::uint64_t kQuenchStream = ~0ull - 1;

  /// The gateway output queue backlog on the a→b trunk (tests/benches).
  std::uint64_t trunk_backlog(RouterId a, RouterId b) const;
  const SimplexLink::Stats* trunk_stats(RouterId a, RouterId b) const;

  /// Total packets dropped at gateway queues (congestion indicator).
  std::uint64_t gateway_drops() const;

  /// Gateway drops by cause (also mirrored into telemetry as
  /// net.<prefix>.drop.* by collect_internet). These used to vanish into
  /// the aggregate Stats::dropped.
  struct DropStats {
    std::uint64_t trunk_full = 0;  ///< next-hop trunk queue rejected the packet
    std::uint64_t no_route = 0;    ///< unknown destination host or partition
    std::uint64_t access = 0;      ///< dead/full access link at the last hop
  };
  const DropStats& drop_stats() const { return drops_; }

  /// Number of hops a src→dst packet traverses (access links excluded).
  std::size_t route_hops(HostId src, HostId dst) const;

  /// Route table rebuilds so far (one per lookup after a topology change).
  std::uint64_t route_recomputes() const { return route_recomputes_; }

 private:
  struct Router {
    Time processing_delay;
    // Neighbor router -> outgoing trunk link, ordered by neighbor id: route
    // building and next_hop's lowest-id tie-break iterate it.
    std::map<RouterId, std::unique_ptr<SimplexLink>> trunks;
    // Locally attached host -> outgoing access link (a hash map: it sits on
    // the per-packet path and nothing iterates it in order).
    std::unordered_map<HostId, std::unique_ptr<SimplexLink>> access_down;
  };

  static constexpr RouterId kNoRoute = ~0u;
  static constexpr std::uint32_t kUnreachable = ~0u;

  struct HostPort {
    RouterId router = 0;
    std::unique_ptr<SimplexLink> access_up;  // host -> router
    PacketSink sink;
  };

  void forward(RouterId at, Packet p);
  void dispatch(Packet p) override;
  /// The up neighbor of `at` one hop closer to `target` (lowest id among
  /// ties); kNoRoute when `target` is unreachable. Requires at != target.
  RouterId next_hop(RouterId at, RouterId target) const;
  /// Refills hops_ by one BFS per destination over the up trunks.
  void rebuild_routes() const;
  /// The links a src→dst packet traverses: access up, the trunks
  /// next_hop picks, access down. Empty if partitioned or unknown.
  std::vector<SimplexLink*> path_links(HostId src, HostId dst) const;

  void send_quench(HostId to, std::uint64_t dropped_stream);

  Discipline discipline_;
  Rng rng_;
  std::vector<std::unique_ptr<Router>> routers_;
  // Built lazily by the first lookup after a topology change, hence
  // mutable: hops_[target][r] = trunk hops from router r to `target`.
  mutable std::vector<std::vector<std::uint32_t>> hops_;
  mutable bool routes_dirty_ = true;
  mutable std::uint64_t route_recomputes_ = 0;
  std::map<HostId, HostPort> hosts_;
  bool source_quench_ = false;
  DropStats drops_;
  std::map<std::uint64_t, std::vector<SimplexLink*>> stream_reservations_;
};

/// Canonical traits for a wide-area internetwork (56 kb/s trunks in the
/// paper's era would starve the benches; we use T1-class 1.5 Mb/s trunks
/// with 20 ms propagation — "high-delay long-distance networks" §1).
NetworkTraits internet_traits(std::string name = "internet");

/// Default trunk link configuration matching internet_traits().
SimplexLink::Config internet_trunk_config(const NetworkTraits& traits,
                                          Discipline discipline);

/// Builds the standard two-gateway dumbbell used by tests and benches:
/// hosts `left` attach to gateway L, hosts `right` to gateway R, one trunk
/// L—R. Returns the network.
std::unique_ptr<InternetNetwork> make_dumbbell(
    sim::Simulator& sim, NetworkTraits traits, std::uint64_t seed,
    const std::vector<HostId>& left, const std::vector<HostId>& right,
    Discipline discipline = Discipline::kDeadline);

}  // namespace dash::net
