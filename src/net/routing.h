// Pluggable routing engine for the internetwork (DESIGN.md §15).
//
// InternetNetwork used to rerun a full BFS from every router — with a
// std::map parent table in the inner loop — whenever anything about the
// topology changed: O(R·(R+E)) per trunk flap. This engine owns a flat
// vector-indexed adjacency and per-destination distance fields and keeps
// them current three ways:
//
//   * kFullRecompute — the reference mode: any event invalidates every
//     table and the next query rebuilds them all with flat-array BFS.
//   * kIncremental (default) — a trunk up/down event repairs only the
//     affected subtree of each destination's shortest-path DAG: an O(1)
//     tightness check rejects most (event, destination) pairs outright,
//     and a bounded bucket-queue Dijkstra re-settles just the routers
//     whose distance actually changed.
//   * hierarchical areas (orthogonal) — per-area distance tables plus a
//     per-area reachability field replace the global O(R²) table with
//     O(Σ|area|² + R·areas) entries; inter-area paths are hierarchical
//     (enter the destination area at its globally nearest member, then
//     route intra-area), the standard locality/optimality trade.
//
// Next-hop sets are never stored: they are derived from the distance
// fields at forwarding time (neighbors one level closer to the
// destination), so ECMP consistency with the tables holds by
// construction, and table equivalence between modes is exactly distance
// equality — what table_digest() hashes. Among equal-cost next hops the
// choice is keyed by a (src, dst, stream) flow hash salted per router, so
// a flow never changes trunks absent a topology event while distinct
// flows spread across the equal-cost set.
//
// Everything is deterministic: adjacency is kept sorted by neighbor id,
// BFS/Dijkstra results are unique distance fields, and the flow hash is
// an explicit splitmix64 (not std::hash). Same event history ⇒ same
// table bytes ⇒ same forwarding decisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dash::net {

class RoutingEngine {
 public:
  using RouterId = std::uint32_t;
  using AreaId = std::uint32_t;

  static constexpr std::uint16_t kUnreachable = 0xFFFF;
  static constexpr RouterId kNoRoute = ~0u;

  enum class Mode {
    kFullRecompute,  ///< reference: rebuild every table on any event
    kIncremental,    ///< affected-subtree repair per trunk event (default)
  };

  struct Stats {
    std::uint64_t full_recomputes = 0;  ///< complete table rebuilds
    std::uint64_t repairs = 0;          ///< incremental trunk-event repairs
    std::uint64_t routers_touched = 0;  ///< per-field distance entries updated
    std::uint64_t recompute_ns = 0;     ///< wall time spent building/repairing
  };

  explicit RoutingEngine(Mode mode = Mode::kIncremental) : mode_(mode) {}

  // Topology ------------------------------------------------------------
  RouterId add_router(AreaId area = 0);
  /// Adds an undirected link (initially up). Links are unique per pair.
  void add_link(RouterId a, RouterId b);
  /// Trunk flap. In kIncremental mode with built tables this repairs the
  /// affected subtrees immediately; otherwise tables rebuild lazily.
  void set_link_state(RouterId a, RouterId b, bool up);

  /// Switches to hierarchical area tables (see header comment). Area ids
  /// come from add_router; call before the first query.
  void enable_areas(bool on);

  void set_mode(Mode m);
  Mode mode() const { return mode_; }

  // Queries (tables build lazily) ---------------------------------------
  /// Hop count from `from` to `to` (kUnreachable if partitioned). In
  /// areas mode, inter-area distances are measured along the hierarchical
  /// forwarding path.
  std::uint32_t distance(RouterId from, RouterId to);

  /// Deterministic flow-keyed choice among the equal-cost next hops from
  /// `at` toward `dst` (`at` != `dst`). kNoRoute if unreachable.
  RouterId pick(RouterId at, RouterId dst, std::uint64_t flow_key);

  /// The full ECMP next-hop set, ascending neighbor id. Returns the
  /// count; fills at most `max_out` entries.
  int next_hops(RouterId at, RouterId dst, RouterId* out, int max_out);

  /// Flow key for ECMP hashing: explicit splitmix64 over the src/dst
  /// host ids and the network-RMS stream id, identical across runs.
  static std::uint64_t flow_key(std::uint64_t src_host, std::uint64_t dst_host,
                                std::uint64_t stream);

  /// Deterministic hash of every table byte; forces a build. Equal
  /// digests between modes / across runs mean identical tables.
  std::uint64_t table_digest();

  /// Number of distance entries currently stored (table footprint).
  std::size_t table_entries() const;

  std::size_t routers() const { return adj_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Edge {
    RouterId to = 0;
    bool up = true;
  };

  struct Area {
    AreaId id = 0;
    std::vector<RouterId> members;  ///< ascending router id
    /// Distances within the area over intra-area links only, local
    /// indices: intra[local_dst * members.size() + local_src].
    std::vector<std::uint16_t> intra;
    /// Distance from every router (global index) to the nearest member
    /// of this area over the full graph (multi-source BFS).
    std::vector<std::uint16_t> field;
  };

  void ensure_tables();
  void build_all();
  void repair(RouterId a, RouterId b, bool up);
  void mark_dirty() { dirty_ = true; }

  // Field machinery (implemented in routing.cpp over a neighbors view).
  template <typename Neighbors>
  void build_field(std::uint16_t* dist, std::size_t n,
                   const std::uint32_t* sources, std::size_t n_sources,
                   Neighbors&& nb);
  template <typename Neighbors>
  std::size_t repair_field_down(std::uint16_t* dist, std::uint32_t ia,
                                std::uint32_t ib, Neighbors&& nb);
  template <typename Neighbors>
  std::size_t repair_field_up(std::uint16_t* dist, std::uint32_t ia,
                              std::uint32_t ib, Neighbors&& nb);

  int tight_neighbors(RouterId at, RouterId dst, RouterId* out, int max_out);

  Mode mode_;
  bool areas_ = false;
  bool dirty_ = true;
  Stats stats_;

  std::vector<std::vector<Edge>> adj_;  ///< sorted by Edge::to
  std::vector<AreaId> area_of_;
  std::vector<std::uint32_t> local_index_;  ///< router -> index in its area
  std::vector<std::uint64_t> salt_;         ///< per-router ECMP hash salt

  /// Flat mode: dist_[d][r] = hops from r to d. Empty in areas mode.
  std::vector<std::vector<std::uint16_t>> dist_;
  /// Areas mode, indexed by dense area slot (area ids may be sparse).
  std::vector<Area> area_tables_;
  std::vector<std::uint32_t> area_slot_;  ///< AreaId -> slot in area_tables_

  // Repair scratch (sized to the router count, reused across events).
  std::vector<std::uint8_t> mark_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint32_t> worklist_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> used_buckets_;
};

}  // namespace dash::net
