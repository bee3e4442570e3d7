// C13: sharded parallel simulation core — scaling and determinism.
//
// Runs the canonical multi-region world (8 Ethernet regions joined into a
// WAN ring, every host streaming paced frames, every gateway pinging its
// ring successor) under shard counts 1, 2, 4 and 8 with one worker thread
// per shard, and reports:
//
//   * events/sec at each shard count — the aggregate engine throughput,
//     wall-clock measured over the same simulated interval;
//   * speedup_8 — events/sec at 8 shards over the 1-shard run. On a
//     single-core container this hovers near (or below) 1.0 from barrier
//     overhead; the CI floor therefore gates events/sec per shard count,
//     not the ratio;
//   * determinism_ok — 1 iff the workload trace hash and the delivery
//     counters are bit-identical across every shard count. This is the
//     hard gate: parallelism must never change the simulated history.
//
// CLI: the shared baseline gate (bench_util.h Gate; the CI gate uses
// --check), higher is better: events/sec floors plus determinism_ok.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/parallel.h"
#include "workload/topology.h"

using namespace dash;
using namespace dash::bench;

namespace {

constexpr std::uint32_t kRegions = 8;
constexpr int kHostsPerRegion = 6;
constexpr std::uint64_t kSeed = 0xc13c13c13ull;
constexpr Time kSimulated = sec(4);
constexpr int kRepeats = 2;  ///< best-of, to de-noise the wall clock
const sim::ShardId kShardCounts[] = {1, 2, 4, 8};

struct RunResult {
  sim::ShardId shards = 1;
  double wall_sec = 0;
  std::uint64_t executed = 0;
  std::uint64_t exchanged = 0;
  std::uint64_t windows = 0;
  std::uint64_t late = 0;
  std::uint64_t trace = 0;
  std::uint64_t frames = 0;
  std::uint64_t pings = 0;
  std::uint64_t pongs = 0;

  double events_per_sec() const {
    return wall_sec == 0 ? 0.0 : static_cast<double>(executed) / wall_sec;
  }
};

RunResult run_one(sim::ShardId shards) {
  sim::ShardedSimulator ssim(shards, sim::EngineMode::kCalendar,
                             sim::ShardExec::kThreads);
  workload::MultiRegionConfig cfg;
  cfg.regions = kRegions;
  cfg.hosts_per_region = kHostsPerRegion;
  cfg.seed = kSeed;
  workload::MultiRegionWorld world(ssim, cfg);
  world.start();

  const auto t0 = std::chrono::steady_clock::now();
  ssim.run_until(kSimulated);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.shards = shards;
  r.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  r.executed = ssim.aggregate_engine_stats().executed;
  r.exchanged = ssim.stats().exchanged;
  r.windows = ssim.stats().windows;
  r.late = ssim.stats().late_entries;
  r.trace = world.trace_hash();
  r.frames = world.frames_received();
  r.pings = world.pings_received();
  r.pongs = world.pongs_received();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // With determinism_ok baselined at 1, any break lands under the floor.
  const Gate gate(argc, argv, Gate::Better::kHigher, 0.001);

  title("C13", "sharded parallel core: scaling + cross-shard determinism");

  BenchJson json("c13_parallel");
  std::map<std::string, double> current;

  std::vector<RunResult> runs;
  for (const sim::ShardId shards : kShardCounts) {
    RunResult best = run_one(shards);
    for (int rep = 1; rep < kRepeats; ++rep) {
      RunResult again = run_one(shards);
      if (again.wall_sec < best.wall_sec) best = again;
    }
    runs.push_back(best);
  }

  std::printf("%7s %12s %10s %9s %9s %6s %18s\n", "shards", "events", "ev/sec",
              "windows", "exchange", "late", "trace");
  for (const RunResult& r : runs) {
    std::printf("%7u %12llu %10.0f %9llu %9llu %6llu 0x%016llx\n", r.shards,
                static_cast<unsigned long long>(r.executed), r.events_per_sec(),
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.exchanged),
                static_cast<unsigned long long>(r.late),
                static_cast<unsigned long long>(r.trace));
  }

  const RunResult& ref = runs.front();
  bool deterministic = true;
  for (const RunResult& r : runs) {
    if (r.trace != ref.trace || r.frames != ref.frames ||
        r.pings != ref.pings || r.pongs != ref.pongs || r.late != 0) {
      deterministic = false;
      std::fprintf(stderr,
                   "DETERMINISM BREAK at %u shards: trace 0x%016llx vs "
                   "0x%016llx, frames %llu/%llu, pings %llu/%llu, pongs "
                   "%llu/%llu, late %llu\n",
                   r.shards, static_cast<unsigned long long>(r.trace),
                   static_cast<unsigned long long>(ref.trace),
                   static_cast<unsigned long long>(r.frames),
                   static_cast<unsigned long long>(ref.frames),
                   static_cast<unsigned long long>(r.pings),
                   static_cast<unsigned long long>(ref.pings),
                   static_cast<unsigned long long>(r.pongs),
                   static_cast<unsigned long long>(ref.pongs),
                   static_cast<unsigned long long>(r.late));
    }
  }

  const double speedup =
      ref.events_per_sec() == 0 ? 0.0
                                : runs.back().events_per_sec() / ref.events_per_sec();
  std::printf("\ndeterminism %s, %llu frames, %llu pings, %llu pongs, "
              "speedup at 8 shards %.2fx\n",
              deterministic ? "OK" : "BROKEN",
              static_cast<unsigned long long>(ref.frames),
              static_cast<unsigned long long>(ref.pings),
              static_cast<unsigned long long>(ref.pongs), speedup);

  for (const RunResult& r : runs) {
    const std::string shards = std::to_string(r.shards);
    json.record("events_per_sec", r.events_per_sec(), "events/s",
                {{"shards", shards}});
    json.record("events_executed", static_cast<double>(r.executed), "events",
                {{"shards", shards}});
    json.record("exchanged", static_cast<double>(r.exchanged), "entries",
                {{"shards", shards}});
    current["events_per_sec_s" + shards] = r.events_per_sec();
  }
  json.record("speedup_8", speedup, "x", {});
  json.record("determinism_ok", deterministic ? 1.0 : 0.0, "bool", {});
  current["determinism_ok"] = deterministic ? 1.0 : 0.0;

  if (const int rc = gate.finish(current, "parallel-core")) return rc;
  return deterministic ? 0 : 1;
}
