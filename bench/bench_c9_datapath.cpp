// C9: datapath cost — heap allocations and throughput per delivered message.
//
// The paper's ST keeps per-message host overhead small enough that delay
// bounds `A + B·size` are dominated by the network (§4.1–4.3). In a modern
// reproduction the equivalent of the per-hop copies it was designed to
// avoid is allocator traffic: every layer boundary that copies a payload
// shows up as operator-new calls per delivered message. This bench counts
// exactly that, on two workloads:
//
//   * frag  — c5-equivalent fragmentation: messages several times the
//             network frame, so every send fragments and every delivery
//             reassembles;
//   * piggy — several small-message streams multiplexed onto one channel,
//             so components share network packets (§4.3.1).
//
// CLI: the shared baseline gate (bench_util.h Gate; the CI gate uses
// --check), lower is better: allocs/msg may not exceed the baseline by more
// than the tolerance.
//
// The checked-in `bench/baselines/c9_prerefactor.txt` holds the counts
// recorded before the zero-copy datapath refactor; the default run reports
// the reduction against it when the file is reachable.
#include <chrono>

#include "bench_util.h"
#include "util/alloc_count.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct DatapathResult {
  double allocs_per_msg = 0;
  double alloc_bytes_per_msg = 0;
  double msgs_per_wall_sec = 0;
  std::uint64_t delivered = 0;
};

DatapathResult run_frag(std::size_t message_size, std::size_t messages) {
  auto lan = node::ethernet_world(2, net::ethernet_traits(), 41);

  rms::Params desired;
  desired.capacity = 128 * 1024;
  desired.max_message_size = message_size;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(200);
  desired.delay.b_per_byte = usec(10);
  rms::Params acceptable = desired;
  acceptable.capacity = message_size;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;

  rms::Port port;
  lan.node(2).ports.bind(70, &port);
  auto stream = lan.node(1).st->create({desired, acceptable}, {2, 70});
  if (!stream) {
    std::fprintf(stderr, "frag stream creation failed: %s\n",
                 stream.error().message.c_str());
    return {};
  }

  // Establish + warm the channel before counting.
  const Time interval = transmission_time(message_size + 64, 10'000'000) + usec(500);
  for (int i = 0; i < 8; ++i) {
    rms::Message m;
    m.data = patterned_bytes(message_size, static_cast<std::uint64_t>(i));
    (void)stream.value()->send(std::move(m));
    lan.sim.run_for(interval);
  }
  lan.sim.run_for(msec(50));

  const std::uint64_t before = port.delivered();
  alloc_count::Scope scope;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < messages; ++i) {
    rms::Message m;
    m.data = patterned_bytes(message_size, i);
    (void)stream.value()->send(std::move(m));
    lan.sim.run_for(interval);
  }
  lan.sim.run_for(msec(50));
  const auto wall_end = std::chrono::steady_clock::now();
  const std::uint64_t allocs = scope.allocations();
  const std::uint64_t bytes = scope.bytes();

  DatapathResult r;
  r.delivered = port.delivered() - before;
  if (r.delivered == 0) return r;
  r.allocs_per_msg = static_cast<double>(allocs) / static_cast<double>(r.delivered);
  r.alloc_bytes_per_msg = static_cast<double>(bytes) / static_cast<double>(r.delivered);
  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  r.msgs_per_wall_sec = wall_s > 0 ? static_cast<double>(r.delivered) / wall_s : 0;
  return r;
}

DatapathResult run_piggyback(int streams, std::size_t message_size,
                             std::size_t messages_per_stream) {
  st::StConfig config;
  config.piggyback_window = msec(2);
  auto lan = node::ethernet_world(2, net::ethernet_traits(), 43,
                                  net::Discipline::kDeadline, {.st = config});

  rms::Params desired;
  desired.capacity = 64 * 1024;
  desired.max_message_size = 4096;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(50);
  desired.delay.b_per_byte = usec(10);
  rms::Params acceptable = desired;
  acceptable.capacity = 4096;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;

  rms::Port port;
  lan.node(2).ports.bind(71, &port);
  std::vector<std::unique_ptr<rms::Rms>> senders;
  for (int s = 0; s < streams; ++s) {
    auto stream = lan.node(1).st->create({desired, acceptable}, {2, 71});
    if (!stream) {
      std::fprintf(stderr, "piggy stream creation failed: %s\n",
                   stream.error().message.c_str());
      return {};
    }
    senders.push_back(std::move(stream).value());
  }

  auto send_round = [&](std::size_t round) {
    for (auto& s : senders) {
      rms::Message m;
      m.data = patterned_bytes(message_size, round);
      (void)s->send(std::move(m));
    }
    lan.sim.run_for(usec(700));
  };

  for (std::size_t i = 0; i < 16; ++i) send_round(i);  // warmup + establish
  lan.sim.run_for(msec(50));

  const std::uint64_t before = port.delivered();
  alloc_count::Scope scope;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < messages_per_stream; ++i) send_round(i);
  lan.sim.run_for(msec(50));
  const auto wall_end = std::chrono::steady_clock::now();
  const std::uint64_t allocs = scope.allocations();
  const std::uint64_t bytes = scope.bytes();

  DatapathResult r;
  r.delivered = port.delivered() - before;
  if (r.delivered == 0) return r;
  r.allocs_per_msg = static_cast<double>(allocs) / static_cast<double>(r.delivered);
  r.alloc_bytes_per_msg = static_cast<double>(bytes) / static_cast<double>(r.delivered);
  const double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  r.msgs_per_wall_sec = wall_s > 0 ? static_cast<double>(r.delivered) / wall_s : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  title("C9", "datapath heap allocations and throughput per delivered message");

  const Gate gate(argc, argv, Gate::Better::kLower, 0.0);

  if (!alloc_count::instrumented()) {
    std::fprintf(stderr, "binary is not linked against dash_alloc_count\n");
    return 2;
  }

  const DatapathResult frag = run_frag(6000, 400);
  const DatapathResult piggy = run_piggyback(4, 256, 400);

  std::printf("%-10s %12s %14s %16s %12s\n", "workload", "delivered",
              "allocs/msg", "alloc bytes/msg", "msg/s wall");
  std::printf("%-10s %12llu %14.1f %16.0f %12.0f\n", "frag",
              static_cast<unsigned long long>(frag.delivered), frag.allocs_per_msg,
              frag.alloc_bytes_per_msg, frag.msgs_per_wall_sec);
  std::printf("%-10s %12llu %14.1f %16.0f %12.0f\n", "piggy",
              static_cast<unsigned long long>(piggy.delivered), piggy.allocs_per_msg,
              piggy.alloc_bytes_per_msg, piggy.msgs_per_wall_sec);

  BenchJson json("c9_datapath");
  json.record("allocs_per_msg", frag.allocs_per_msg, "allocations",
              {{"workload", "frag"}});
  json.record("alloc_bytes_per_msg", frag.alloc_bytes_per_msg, "bytes",
              {{"workload", "frag"}});
  json.record("throughput", frag.msgs_per_wall_sec, "msg/s", {{"workload", "frag"}});
  json.record("allocs_per_msg", piggy.allocs_per_msg, "allocations",
              {{"workload", "piggy"}});
  json.record("alloc_bytes_per_msg", piggy.alloc_bytes_per_msg, "bytes",
              {{"workload", "piggy"}});
  json.record("throughput", piggy.msgs_per_wall_sec, "msg/s", {{"workload", "piggy"}});

  const std::map<std::string, double> current = {
      {"frag_allocs_per_msg", frag.allocs_per_msg},
      {"piggy_allocs_per_msg", piggy.allocs_per_msg},
  };

  // Report the win against the pre-refactor record when reachable.
  for (const char* pre : {"bench/baselines/c9_prerefactor.txt",
                          "../bench/baselines/c9_prerefactor.txt"}) {
    const auto baseline = read_baseline(pre);
    if (baseline.empty()) continue;
    std::printf("\nvs pre-refactor baseline (%s):\n", pre);
    for (const auto& [key, value] : current) {
      auto it = baseline.find(key);
      if (it == baseline.end() || it->second <= 0) continue;
      const double reduction = 100.0 * (1.0 - value / it->second);
      std::printf("  %-22s %8.1f -> %8.1f  (%+.1f%% allocations)\n", key.c_str(),
                  it->second, value, -reduction);
      json.record("alloc_reduction_vs_prerefactor", reduction, "%",
                  {{"workload", key}});
    }
    break;
  }

  if (const int rc = gate.finish(current, "allocation")) return rc;

  note("\nShape check: the zero-copy datapath serializes each network packet");
  note("exactly once into a shared arena; fragments and piggybacked components");
  note("are slices of that allocation, and the receive path delivers slices of");
  note("the packet buffer, so allocations per message stay flat as payload and");
  note("fragment counts grow.");
  return 0;
}
