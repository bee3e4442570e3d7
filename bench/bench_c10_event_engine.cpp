// C10: event-engine microbenchmark — the cost of scheduling itself.
//
// After PR 3 removed payload copies from the datapath, the per-message cost
// that remained was the control plane: one heap allocation per scheduled
// std::function, a second from Simulator::step() copying the top event, and
// a pending set inflated by dead guard-flag timers. This bench measures the
// rebuilt engine on the two shapes that dominate the layered fabric:
//
//   * cascade — self-rescheduling event chains whose closures capture
//     "this + ids + a ref-counted Buffer" (the datapath shape). Reports
//     events/sec and allocations/event.
//   * churn — request/reply rounds that arm a retransmit timer and cancel
//     it when the reply lands 50 us later (the ST/RKOM control shape).
//     Reports allocations/round and the peak pending-set size; with real
//     cancellation the cancelled timers leave pending() immediately.
//
// Both workloads run under the calendar-queue engine and the reference
// binary-heap engine; numbers are written to BENCH_c10_event_engine.json.
//
// CLI: the shared baseline gate (bench_util.h Gate; the CI gate uses
// --check), lower is better. Exits 2 if the counting allocator is not
// linked in.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/simulator.h"
#include "util/alloc_count.h"
#include "util/buffer.h"

using namespace dash;
using namespace dash::bench;

namespace {

constexpr int kCascadeChains = 8;
constexpr std::size_t kCascadeEvents = 400000;
constexpr int kChurnCalls = 256;
constexpr std::size_t kChurnRounds = 200000;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Chain {
  sim::Simulator* sim;
  std::uint64_t id;
  std::uint64_t seq = 0;
  Buffer payload;
  std::size_t* done;
  std::size_t budget;

  void fire() {
    ++*done;
    if (++seq >= budget) return;
    const Time delta = static_cast<Time>(mix(id * 1315423911u + seq) % usec(16));
    // The capture is the repo's hot closure shape: a pointer, two ids, and
    // a ref-counted payload — inside sim::Task's 64-byte inline buffer.
    sim->after(delta, [self = this, cid = id, s = seq, b = payload] {
      (void)cid;
      (void)s;
      (void)b;
      self->fire();
    });
  }
};

struct CascadeResult {
  double allocs_per_event;
  double events_per_sec;
  std::uint64_t inline_tasks;
  std::uint64_t heap_tasks;
};

CascadeResult run_cascade(sim::EngineMode mode) {
  sim::Simulator sim(mode);
  std::size_t done = 0;
  std::vector<Chain> chains;
  chains.reserve(kCascadeChains);
  for (int c = 0; c < kCascadeChains; ++c) {
    chains.push_back(Chain{&sim, static_cast<std::uint64_t>(c + 1), 0,
                           Buffer(Bytes(64)), &done,
                           kCascadeEvents / kCascadeChains});
  }
  alloc_count::Scope scope;
  const auto wall0 = std::chrono::steady_clock::now();
  for (auto& ch : chains) sim.after(0, [&ch] { ch.fire(); });
  sim.run();
  const auto wall1 = std::chrono::steady_clock::now();
  CascadeResult r;
  r.allocs_per_event =
      static_cast<double>(scope.allocations()) / static_cast<double>(done);
  r.events_per_sec = static_cast<double>(done) /
                     std::chrono::duration<double>(wall1 - wall0).count();
  r.inline_tasks = sim.stats().scheduled_inline;
  r.heap_tasks = sim.stats().scheduled_heap;
  return r;
}

struct Call {
  sim::Simulator* sim;
  std::uint64_t id;
  sim::TimerHandle retry;
  Buffer request;
  std::size_t* replies;
  std::size_t* rounds_left;

  void start() {
    if (*rounds_left == 0) return;
    --*rounds_left;
    // Retransmit timer retains the request payload; the reply cancels it.
    retry = sim->timer_after(msec(1), [this, wire = request] {
      (void)wire;
      start();  // timeout path (never taken here)
    });
    sim->after(usec(50), [this] {
      sim->cancel(retry);
      ++*replies;
      start();
    });
  }
};

struct ChurnResult {
  double allocs_per_round;
  double rounds_per_sec;
  std::size_t peak_pending;
  std::uint64_t timers_cancelled;
};

ChurnResult run_churn(sim::EngineMode mode) {
  sim::Simulator sim(mode);
  std::size_t replies = 0;
  std::size_t rounds_left = kChurnRounds;
  std::vector<Call> calls;
  calls.reserve(kChurnCalls);
  for (int i = 0; i < kChurnCalls; ++i) {
    calls.push_back(Call{&sim, static_cast<std::uint64_t>(i + 1), {},
                         Buffer(Bytes(48)), &replies, &rounds_left});
  }
  std::size_t peak = 0;
  alloc_count::Scope scope;
  const auto wall0 = std::chrono::steady_clock::now();
  for (auto& c : calls) c.start();
  while (sim.step()) {
    if (sim.pending() > peak) peak = sim.pending();
  }
  const auto wall1 = std::chrono::steady_clock::now();
  ChurnResult r;
  r.allocs_per_round =
      static_cast<double>(scope.allocations()) / static_cast<double>(replies);
  r.rounds_per_sec = static_cast<double>(replies) /
                     std::chrono::duration<double>(wall1 - wall0).count();
  r.peak_pending = peak;
  r.timers_cancelled = sim.stats().timers_cancelled;
  return r;
}

const char* mode_name(sim::EngineMode m) {
  return m == sim::EngineMode::kCalendar ? "calendar" : "heap";
}

}  // namespace

int main(int argc, char** argv) {
  // Allocation metrics can be ~0: the absolute slack keeps the gate sane.
  const Gate gate(argc, argv, Gate::Better::kLower, 0.05);

  if (!alloc_count::instrumented()) {
    std::fprintf(stderr,
                 "bench_c10_event_engine: counting allocator not linked; "
                 "allocation metrics unavailable\n");
    return 2;
  }

  title("C10", "event-engine scheduling cost (inline tasks + cancellable timers)");

  BenchJson json("c10_event_engine");
  std::map<std::string, double> current;

  for (sim::EngineMode mode :
       {sim::EngineMode::kCalendar, sim::EngineMode::kHeap}) {
    const CascadeResult c = run_cascade(mode);
    const ChurnResult h = run_churn(mode);
    std::printf(
        "%-8s cascade: %7.0f kev/s  %.3f allocs/event  (%llu inline, %llu heap "
        "tasks)\n",
        mode_name(mode), c.events_per_sec / 1e3, c.allocs_per_event,
        static_cast<unsigned long long>(c.inline_tasks),
        static_cast<unsigned long long>(c.heap_tasks));
    std::printf(
        "%-8s churn:   %7.0f krd/s  %.3f allocs/round  peak pending %zu  "
        "(%llu timers cancelled)\n",
        mode_name(mode), h.rounds_per_sec / 1e3, h.allocs_per_round,
        h.peak_pending, static_cast<unsigned long long>(h.timers_cancelled));

    const std::string m = mode_name(mode);
    json.record("cascade_events_per_sec", c.events_per_sec, "events/s",
                {{"engine", m}});
    json.record("cascade_allocs_per_event", c.allocs_per_event, "allocs/event",
                {{"engine", m}});
    json.record("churn_allocs_per_round", h.allocs_per_round, "allocs/round",
                {{"engine", m}});
    json.record("churn_peak_pending", static_cast<double>(h.peak_pending),
                "events", {{"engine", m}});
    if (mode == sim::EngineMode::kCalendar) {
      current["cascade_allocs_per_event"] = c.allocs_per_event;
      current["churn_allocs_per_round"] = h.allocs_per_round;
      current["churn_peak_pending"] = static_cast<double>(h.peak_pending);
    }
  }

  const auto pre = read_baseline("bench/baselines/c10_prerefactor.txt");
  if (!pre.empty()) {
    note("vs pre-refactor engine (std::function + priority_queue + guard-flag "
         "timers):");
    for (const auto& [key, now_v] : current) {
      auto it = pre.find(key);
      if (it == pre.end() || it->second == 0) continue;
      std::printf("  %-26s %8.3f -> %8.3f  (%+.1f%%)\n", key.c_str(),
                  it->second, now_v, 100.0 * (now_v - it->second) / it->second);
    }
  }

  return gate.finish(current, "allocation");
}
