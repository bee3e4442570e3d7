// C11: transparent failover — on-time delivery across a silent outage.
//
// A reliable stream sends one message every 10 ms for 10 s across a host
// with two networks. From t=1 s to t=9 s network A silently stops
// delivering: the network object stays "up", no failure notification
// fires — the stack only notices if something is actively watching the
// path. Three configurations run the identical workload and fault script:
//
//   * no-failover — the seed stack's behavior: the stream stays pinned to
//     network A, and every message sent during the outage is lost;
//   * path-manager — probing detects the dead path, the stream fails over
//     to network B, and the ST handoff buffer replays the messages that
//     were in flight when the path died;
//   * fast-probe — the path manager with 50 ms probes that condemn the path
//     on the second miss, so detection takes 100 ms instead of 600 ms.
//
// The score is the fraction of messages delivered within the stream's
// requested delay bound ("on time"). Numbers go to BENCH_c11_failover.json.
//
// CLI: the shared baseline gate (bench_util.h Gate; the CI gate uses
// --check). Higher is better: an on-time fraction that drops more than the
// tolerance below its baseline fails.
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

namespace {

constexpr int kMessages = 1000;
constexpr Time kSendEvery = msec(10);
constexpr std::size_t kPayloadBytes = 256;

rms::Request stream_request() {
  rms::Params desired;
  desired.capacity = 32 * 1024;
  desired.max_message_size = 1024;
  desired.quality.reliable = true;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(20);
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = usec(500);
  acceptable.bit_error_rate = 1.0;
  acceptable.capacity = 1024;
  acceptable.max_message_size = 64;
  return rms::Request{desired, acceptable};
}

struct RunResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ontime = 0;
  std::uint64_t failovers = 0;
  std::uint64_t replayed = 0;

  double ontime_fraction() const {
    return sent == 0 ? 0.0 : static_cast<double>(ontime) / static_cast<double>(sent);
  }
};

enum class Mode { kNoFailover, kPathManager, kFastProbe };

RunResult run_one(Mode mode) {
  node::NodeConfig cfg;
  cfg.path.enabled = mode != Mode::kNoFailover;
  if (mode == Mode::kFastProbe) {
    // Aggressive watch: probe fast and fail over on the second missed
    // probe. Detection is what makes messages late: the rebind itself
    // costs one control round trip (~2 ms) against the stream's ~21 ms
    // bound.
    cfg.path.probe_interval = msec(50);
    cfg.path.probe_timeout = msec(40);
    cfg.path.unhealthy_after = 2;
  }
  node::World<net::EthernetNetwork> world(
      {node::ethernet(net::ethernet_traits("eth-a"), 1),
       node::ethernet(net::ethernet_traits("eth-b"), 2)},
      {1, 2}, cfg);
  // Silent outage on A: packets vanish, nothing is notified.
  world.with_faults(fault::FaultPlan().outage(sec(1), sec(9)), 7);
  sim::Simulator& sim = world.sim;
  node::DashNode& sender = world.node(1);

  const rms::Request request = stream_request();
  const Time bound = request.desired.delay.bound_for(kPayloadBytes);

  RunResult r;
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  inbox.set_handler([&](rms::Message m) {
    ++r.delivered;
    if (m.sent_at >= 0 && sim.now() - m.sent_at <= bound) ++r.ontime;
  });

  auto stream = sender.st->create(request, {2, 50});
  if (!stream.ok()) {
    std::fprintf(stderr, "stream creation failed: %s\n",
                 stream.error().message.c_str());
    return r;
  }
  rms::Rms* raw = stream.value().get();
  for (int i = 0; i < kMessages; ++i) {
    sim.at(kSendEvery * (i + 1), [raw, &r] {
      rms::Message m;
      m.data = Bytes(kPayloadBytes);
      ++r.sent;
      (void)raw->send(std::move(m));
    });
  }
  sim.run_until(sec(12));

  if (sender.path != nullptr) r.failovers = sender.path->stats().failovers;
  r.replayed = sender.st->stats().handoff_replayed;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Gate gate(argc, argv, Gate::Better::kHigher, 0.001);

  title("C11", "path failover: on-time delivery across a silent network outage");

  BenchJson json("c11_failover");
  std::map<std::string, double> current;

  const RunResult without = run_one(Mode::kNoFailover);
  const RunResult with = run_one(Mode::kPathManager);
  const RunResult fast = run_one(Mode::kFastProbe);

  const char* names[] = {"no-failover", "path-manager", "fast-probe"};
  const RunResult* rows[] = {&without, &with, &fast};
  std::printf("%-18s %9s %11s %9s %10s %9s\n", "config", "sent", "delivered",
              "on-time", "failovers", "replayed");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-18s %9llu %11llu %8.1f%% %10llu %9llu\n", names[i],
                static_cast<unsigned long long>(rows[i]->sent),
                static_cast<unsigned long long>(rows[i]->delivered),
                100.0 * rows[i]->ontime_fraction(),
                static_cast<unsigned long long>(rows[i]->failovers),
                static_cast<unsigned long long>(rows[i]->replayed));
  }

  const double ratio = without.ontime_fraction() == 0.0
                           ? 0.0
                           : with.ontime_fraction() / without.ontime_fraction();
  std::printf("\non-time fraction %.3f -> %.3f  (%.1fx)\n",
              without.ontime_fraction(), with.ontime_fraction(), ratio);

  json.record("ontime_fraction", without.ontime_fraction(), "fraction",
              {{"config", "no-failover"}});
  json.record("ontime_fraction", with.ontime_fraction(), "fraction",
              {{"config", "path-manager"}});
  json.record("delivered", static_cast<double>(without.delivered), "messages",
              {{"config", "no-failover"}});
  json.record("delivered", static_cast<double>(with.delivered), "messages",
              {{"config", "path-manager"}});
  json.record("ontime_ratio", ratio, "x", {});
  json.record("failovers", static_cast<double>(with.failovers), "count",
              {{"config", "path-manager"}});
  json.record("handoff_replayed", static_cast<double>(with.replayed), "messages",
              {{"config", "path-manager"}});
  json.record("ontime_fraction", fast.ontime_fraction(), "fraction",
              {{"config", "fast-probe"}});

  current["ontime_with_pm"] = with.ontime_fraction();
  current["ontime_without_pm"] = without.ontime_fraction();
  current["ontime_with_fast_probe"] = fast.ontime_fraction();
  current["ontime_ratio"] = ratio;

  return gate.finish(current, "on-time");
}
