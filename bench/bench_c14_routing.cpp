// C14: internet-scale routing — incremental repair vs full recompute.
//
// Builds two thousand-router topologies (a k=30 fat-tree, 1125 routers,
// and a 25-region × 40-router WAN mesh, 1000 routers) and measures the
// cost of keeping routing tables current through trunk flaps:
//
//   * full_us / inc_us — wall microseconds per trunk event in the
//     reference full-recompute mode vs the incremental affected-subtree
//     repair, over the same seeded flap sample;
//   * speedup_{fattree,wanmesh} — full/incremental cost ratio. The PR's
//     headline claim (≥10× at ≥1000 routers) is CI-gated on these;
//   * route_events_per_sec — incremental repair throughput on the fat
//     tree, the (inverted) route-event cost ceiling for the CI gate;
//   * touched_per_event — routers whose distance entries a repair
//     actually rewrites (vs R per destination for a full rebuild);
//   * fwd_pkts_per_sec — forwarded deliveries per wall second under a
//     flash crowd on a k=8 fat-tree, gating the per-packet ECMP path;
//   * regional_burst_us — wall cost of a correlated regional failure
//     (every WAN uplink of one mesh region at once), the convergence
//     burst;
//   * equivalence_ok — hard gate: after the incremental flap sequence,
//     switching to full-recompute (which rebuilds from scratch) must
//     reproduce the exact table bytes;
//   * determinism_ok — hard gate: the whole bench run twice produces
//     identical table digests and an identical flash-crowd trace hash.
//
// CLI: the shared baseline gate (bench_util.h Gate; the CI gate uses
// --check), higher is better; --check also fails below a 10x speedup.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/scenario.h"
#include "workload/topology.h"

using namespace dash;
using namespace dash::bench;

namespace {

constexpr std::uint64_t kSeed = 0xc14c14c14ull;
constexpr int kFlapSample = 24;  ///< trunks flapped (down+up each) per mode

struct TopoResult {
  std::size_t routers = 0;
  std::size_t trunks = 0;
  double full_us = 0;       ///< per event, reference mode
  double inc_us = 0;        ///< per event, incremental mode
  double touched = 0;       ///< routers touched per incremental event
  std::uint64_t digest = 0; ///< tables after the incremental sequence
  bool equivalent = false;  ///< == fresh full-recompute of same history
};

/// Seeded spread of trunk indices to flap (deterministic, covers the list).
std::vector<std::size_t> flap_sample(std::size_t trunks) {
  std::vector<std::size_t> out;
  const std::size_t stride = trunks / kFlapSample;
  for (int i = 0; i < kFlapSample; ++i) {
    out.push_back((static_cast<std::size_t>(i) * stride + i * 7) % trunks);
  }
  return out;
}

/// Flaps every sampled trunk down then up, forcing a table refresh after
/// each event, and returns wall microseconds per event.
double flap_cost_us(workload::InternetTopology& topo,
                    const std::vector<std::size_t>& sample) {
  auto& eng = topo.net->routing();
  (void)eng.table_digest();  // tables built before the clock starts
  const auto last =
      static_cast<net::RoutingEngine::RouterId>(eng.routers() - 1);
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::size_t i : sample) {
    const auto [a, b] = topo.trunks[i];
    topo.net->set_trunk_down(a, b, true);
    (void)eng.distance(0, last);
    topo.net->set_trunk_down(a, b, false);
    (void)eng.distance(0, last);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double events = 2.0 * static_cast<double>(sample.size());
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / events;
}

template <typename Build>
TopoResult measure_topology(Build&& build) {
  TopoResult r;

  // Reference mode first, on its own fresh topology.
  {
    sim::Simulator sim;
    auto topo = build(sim);
    topo.net->routing().set_mode(net::RoutingEngine::Mode::kFullRecompute);
    r.routers = topo.net->routing().routers();
    r.trunks = topo.trunks.size();
    r.full_us = flap_cost_us(topo, flap_sample(topo.trunks.size()));
  }

  // Incremental mode over the identical flap history.
  {
    sim::Simulator sim;
    auto topo = build(sim);
    auto& eng = topo.net->routing();
    const auto sample = flap_sample(topo.trunks.size());
    const std::uint64_t touched_before = [&] {
      (void)eng.table_digest();
      return eng.stats().routers_touched;
    }();
    r.inc_us = flap_cost_us(topo, sample);
    r.touched = static_cast<double>(eng.stats().routers_touched - touched_before) /
                (2.0 * static_cast<double>(sample.size()));
    r.digest = eng.table_digest();
    // Equivalence gate: a from-scratch rebuild of the same final topology
    // must produce the exact bytes the repairs arrived at.
    eng.set_mode(net::RoutingEngine::Mode::kFullRecompute);
    r.equivalent = eng.table_digest() == r.digest;
  }
  return r;
}

workload::InternetTopology fat_tree_big(sim::Simulator& sim) {
  workload::FatTreeConfig cfg;
  cfg.k = 30;  // 1125 routers, 13500 trunks
  cfg.seed = kSeed;
  return workload::build_fat_tree(sim, cfg);
}

workload::InternetTopology wan_mesh_big(sim::Simulator& sim) {
  workload::WanMeshConfig cfg;
  cfg.regions = 25;
  cfg.routers_per_region = 40;  // 1000 routers
  cfg.intra_chords = 10;
  cfg.inter_trunks = 3;
  cfg.seed = kSeed;
  return workload::build_wan_mesh(sim, cfg);
}

struct CrowdResult {
  std::uint64_t delivered = 0;
  std::uint64_t trace = 0;
  double pkts_per_sec = 0;
};

/// Flash crowd across a k=8 fat-tree: forwarded deliveries per wall sec.
CrowdResult crowd_run() {
  sim::Simulator sim;
  workload::FatTreeConfig cfg;
  cfg.k = 8;
  cfg.seed = kSeed;
  auto topo = workload::build_fat_tree(sim, cfg);
  workload::FlashCrowdConfig crowd;
  crowd.sources = 24;
  crowd.targets = 2;
  crowd.interval = usec(200);
  crowd.duration = msec(300);
  crowd.seed = kSeed;
  workload::FlashCrowd fc(sim, topo, crowd);
  fc.start();
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  CrowdResult r;
  r.delivered = fc.delivered();
  r.trace = fc.trace_hash();
  r.pkts_per_sec = static_cast<double>(fc.delivered()) /
                   std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// Correlated regional failure on the big mesh: wall cost of the down
/// burst (every uplink of region 12 at once), i.e. convergence time.
double regional_burst_us() {
  sim::Simulator sim;
  auto topo = wan_mesh_big(sim);
  (void)topo.net->routing().table_digest();
  const auto uplinks = topo.region_uplinks(12);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [a, b] : uplinks) topo.net->set_trunk_down(a, b, true);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // The hard gates are baselined at 1, so any break lands under the floor
  // regardless of tolerance.
  const Gate gate(argc, argv, Gate::Better::kHigher, 0.001);

  title("C14", "routing at scale: incremental repair vs full recompute");

  const TopoResult ft = measure_topology(fat_tree_big);
  const TopoResult ft2 = measure_topology(fat_tree_big);  // determinism rerun
  const TopoResult wm = measure_topology(wan_mesh_big);
  const TopoResult wm2 = measure_topology(wan_mesh_big);
  const CrowdResult crowd = crowd_run();
  const CrowdResult crowd2 = crowd_run();
  const double burst_us = regional_burst_us();

  const double speedup_ft = ft.inc_us == 0 ? 0.0 : ft.full_us / ft.inc_us;
  const double speedup_wm = wm.inc_us == 0 ? 0.0 : wm.full_us / wm.inc_us;
  const bool equivalent = ft.equivalent && wm.equivalent;
  const bool deterministic = ft.digest == ft2.digest && wm.digest == wm2.digest &&
                             crowd.trace == crowd2.trace &&
                             crowd.delivered == crowd2.delivered;

  std::printf("%10s %8s %8s %12s %12s %9s %9s\n", "topology", "routers",
              "trunks", "full us/ev", "inc us/ev", "speedup", "touched");
  std::printf("%10s %8zu %8zu %12.1f %12.2f %8.1fx %9.1f\n", "fattree30",
              ft.routers, ft.trunks, ft.full_us, ft.inc_us, speedup_ft,
              ft.touched);
  std::printf("%10s %8zu %8zu %12.1f %12.2f %8.1fx %9.1f\n", "wanmesh25",
              wm.routers, wm.trunks, wm.full_us, wm.inc_us, speedup_wm,
              wm.touched);
  std::printf("\nflash crowd: %llu pkts delivered, %.0f pkts/sec forwarded\n",
              static_cast<unsigned long long>(crowd.delivered),
              crowd.pkts_per_sec);
  std::printf("regional failure burst (region 12 uplinks): %.1f us\n", burst_us);
  std::printf("equivalence %s, determinism %s\n", equivalent ? "OK" : "BROKEN",
              deterministic ? "OK" : "BROKEN");

  BenchJson json("c14_routing");
  json.record("full_us_per_event", ft.full_us, "us", {{"topo", "fattree30"}});
  json.record("inc_us_per_event", ft.inc_us, "us", {{"topo", "fattree30"}});
  json.record("full_us_per_event", wm.full_us, "us", {{"topo", "wanmesh25"}});
  json.record("inc_us_per_event", wm.inc_us, "us", {{"topo", "wanmesh25"}});
  json.record("touched_per_event", ft.touched, "routers", {{"topo", "fattree30"}});
  json.record("touched_per_event", wm.touched, "routers", {{"topo", "wanmesh25"}});
  json.record("speedup_fattree", speedup_ft, "x", {});
  json.record("speedup_wanmesh", speedup_wm, "x", {});
  json.record("fwd_pkts_per_sec", crowd.pkts_per_sec, "pkts/s", {});
  json.record("regional_burst_us", burst_us, "us", {});
  json.record("equivalence_ok", equivalent ? 1.0 : 0.0, "bool", {});
  json.record("determinism_ok", deterministic ? 1.0 : 0.0, "bool", {});

  // Baseline: gated metrics are all higher-is-better (costs enter as
  // inverted throughputs), so the shared floor check applies uniformly.
  std::map<std::string, double> current;
  current["speedup_fattree"] = speedup_ft;
  current["speedup_wanmesh"] = speedup_wm;
  current["route_events_per_sec"] = ft.inc_us == 0 ? 0.0 : 1e6 / ft.inc_us;
  current["fwd_pkts_per_sec"] = crowd.pkts_per_sec;
  current["equivalence_ok"] = equivalent ? 1.0 : 0.0;
  current["determinism_ok"] = deterministic ? 1.0 : 0.0;

  // The headline claim is absolute, not merely non-regressing: a
  // single-trunk repair at ≥1000 routers must beat the full recompute by
  // 10× or more.
  if (gate.checking() && (speedup_ft < 10.0 || speedup_wm < 10.0)) {
    std::fprintf(stderr, "REGRESSION: incremental speedup below 10x "
                 "(fattree %.1fx, wanmesh %.1fx)\n", speedup_ft, speedup_wm);
    return 1;
  }
  if (const int rc = gate.finish(current, "routing")) return rc;
  return (equivalent && deterministic) ? 0 : 1;
}
