// Observability demo (DESIGN.md §8): run a mixed workload under scripted
// network faults and account every stream's behaviour against its
// negotiated contract.
//
// Three ST RMS with different delay-bound types (deterministic,
// statistical, best-effort) run from host 1 to host 2 while a FaultPlan
// impairs the segment (i.i.d. loss, reordering, corruption, and a link-down
// window on host 3). An RKOM client on host 1 calls a server on host 3
// through the outage, exercising retries. The telemetry::GuaranteeLedger
// watches each receiving port, and every layer's stats are collected into
// one MetricsRegistry. Output:
//   * the per-stream guarantee ledger and the full metric table on stdout;
//   * telemetry_report.jsonl — one JSON object per metric / stream;
//   * telemetry_trace.json — load in chrome://tracing or ui.perfetto.dev.
#include <cstdio>
#include <vector>

#include "example_util.h"
#include "fault/fault.h"
#include "rkom/rkom.h"
#include "telemetry/collect.h"
#include "telemetry/export.h"
#include "telemetry/ledger.h"
#include "workload/workload.h"

using namespace dash;
using namespace dash::examples;

namespace {

/// One watched stream: the client handle, its receiving port, and its
/// ledger account id.
struct Watched {
  std::uint64_t id = 0;
  std::unique_ptr<rms::Port> port;
  std::unique_ptr<rms::Rms> stream;
  std::unique_ptr<workload::PacedSource> source;
};

rms::Request request_for(rms::BoundType type, Time bound) {
  rms::Params desired;
  desired.capacity = 4096;
  desired.max_message_size = 512;
  desired.delay.type = type;
  desired.delay.a = bound;
  desired.delay.b_per_byte = usec(1);
  desired.statistical.average_load_bps = 64'000.0;
  desired.statistical.burstiness = 2.0;
  desired.statistical.delay_probability = 0.9;
  desired.bit_error_rate = 0.05;
  rms::Params acceptable = desired;
  acceptable.capacity = 1024;
  acceptable.delay.a = sec(1);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return {desired, acceptable};
}

}  // namespace

int main() {
  print_header("telemetry: guarantee ledger, metrics registry, trace export");

  auto lan = node::ethernet_world(3, net::ethernet_traits(), /*seed=*/17);

  // An adversarial medium: background loss / reordering / corruption, plus
  // host 3 losing its link for half a second mid-run.
  fault::FaultPlan plan;
  plan.iid_loss(0.01)
      .reorder(0.02, usec(200), msec(2))
      .corrupt(0.005)
      .link_down(3, sec(4), sec(4) + msec(500));
  fault::FaultInjector injector(lan.sim, plan, /*seed=*/99);
  injector.attach(*lan.network);

  // A bounded trace shared by the fault injector and every host's ST.
  sim::Trace trace(4096);
  injector.set_trace(&trace);
  for (auto& n : lan.nodes) n->st->set_trace(&trace);

  // One registry for the whole world; hot-path latency histograms attach
  // now, counter-style stats are collected at the end.
  telemetry::MetricsRegistry metrics;
  for (auto& n : lan.nodes) n->st->set_metrics(&metrics);
  lan.fabric->set_metrics(&metrics);

  telemetry::GuaranteeLedger ledger;
  auto now = [&lan] { return lan.sim.now(); };

  // Three contract classes, host 1 -> host 2. Voice-like pacing on the
  // bounded streams, a heavier best-effort feed to stress the queues.
  struct Spec {
    const char* name;
    rms::BoundType type;
    Time bound;
    rms::PortId port;
    Time interval;
    std::size_t frame;
  };
  const Spec specs[] = {
      {"det voice", rms::BoundType::kDeterministic, msec(25), 10, msec(20), 160},
      {"stat voice", rms::BoundType::kStatistical, msec(25), 11, msec(20), 160},
      {"bulk feed", rms::BoundType::kBestEffort, msec(25), 12, msec(5), 512},
  };

  std::vector<Watched> streams;
  std::uint64_t next_id = 1;
  for (const Spec& spec : specs) {
    Watched w;
    w.id = next_id++;
    w.port = std::make_unique<rms::Port>();
    lan.node(2).ports.bind(spec.port, w.port.get());

    auto created =
        lan.node(1).st->create(request_for(spec.type, spec.bound), {2, spec.port});
    if (!created) {
      std::printf("stream '%s' rejected: %s\n", spec.name,
                  created.error().message.c_str());
      return 1;
    }
    w.stream = std::move(created).value();

    ledger.open(w.id, spec.name, w.stream->params(), 1, 2);
    ledger.watch(*w.port, w.id, now);
    const std::uint64_t id = w.id;

    // The statistical stream requests fast acknowledgements (§3.2) so the
    // "st.1.fast_ack_rtt_ns" histogram fills too.
    auto* st_rms = static_cast<st::StRms*>(w.stream.get());
    const bool acked = spec.type == rms::BoundType::kStatistical;
    w.source = std::make_unique<workload::PacedSource>(
        lan.sim, spec.interval, spec.frame,
        [st_rms, &ledger, id, acked](Bytes frame) {
          const std::uint64_t bytes = frame.size();
          rms::Message m;
          m.data = std::move(frame);
          const Status s = acked ? st_rms->send_acked(std::move(m), bytes)
                                 : st_rms->send(std::move(m));
          if (s.ok()) ledger.on_send(id, bytes);
        });
    streams.push_back(std::move(w));
  }

  // Request/reply across the outage: host 1 calls host 3 every ~100 ms;
  // calls issued inside the link-down window ride RKOM's retry machinery.
  rkom::RkomNode rk_client(*lan.node(1).st, lan.node(1).ports);
  rkom::RkomNode rk_server(*lan.node(3).st, lan.node(3).ports);
  rk_client.set_metrics(&metrics);
  rk_server.register_operation(
      7, {[](BytesView in) { return Bytes(in.begin(), in.end()); }, usec(200)});
  std::function<void()> issue = [&lan, &rk_client, &issue] {
    if (lan.sim.now() >= sec(10)) return;
    rk_client.call(3, 7, patterned_bytes(64, 1), [&lan, &issue](Result<Bytes> r) {
      (void)r;  // timeouts during the outage are part of the story
      lan.sim.after(msec(100), [&issue] { issue(); });
    });
  };
  issue();

  for (auto& w : streams) w.source->start();
  lan.sim.run_until(sec(10));
  for (auto& w : streams) w.source->stop();
  lan.sim.run_for(sec(1));

  // ---- the ledger -------------------------------------------------------
  std::printf("%s", ledger.report().c_str());

  // ---- internet gateway section ----------------------------------------
  // A congested dumbbell with a mid-run trunk flap, so the per-cause drop
  // counters (net.internet.drop.*) and the route-table rebuild counter
  // (net.internet.route.recomputes) show up in the report alongside the LAN.
  sim::Simulator inet_sim;
  auto inet = net::make_dumbbell(inet_sim, net::internet_traits(), 21, {11, 13},
                                 {12});
  inet->attach(11, [](net::Packet) {});
  inet->attach(13, [](net::Packet) {});
  std::uint64_t inet_delivered = 0;
  inet->attach(12, [&inet_delivered](net::Packet) { ++inet_delivered; });
  for (int i = 0; i < 400; ++i) {
    inet_sim.after(msec(i), [&inet, i] {
      net::Packet p;
      p.src = i % 2 == 0 ? 11 : 13;
      p.dst = 12;
      p.stream = 5;
      p.payload = Bytes(500, std::byte{0x5A});
      inet->send(std::move(p));
    });
  }
  // One flap while traffic flows: forwarding sees a partition (no_route
  // drops), and each edge of the window costs one route-table rebuild.
  inet_sim.after(msec(150), [&inet] { inet->set_trunk_down(0, 1, true); });
  inet_sim.after(msec(200), [&inet] { inet->set_trunk_down(0, 1, false); });
  inet_sim.run();
  std::printf("\ninternet dumbbell: %llu delivered, drops trunk_full=%llu "
              "no_route=%llu access=%llu\n",
              static_cast<unsigned long long>(inet_delivered),
              static_cast<unsigned long long>(inet->drop_stats().trunk_full),
              static_cast<unsigned long long>(inet->drop_stats().no_route),
              static_cast<unsigned long long>(inet->drop_stats().access));

  // ---- collect every layer into the registry and export ----------------
  telemetry::collect_ethernet(metrics, *lan.network, "ethernet", {1, 2, 3});
  telemetry::collect_internet(metrics, *inet, "internet");
  telemetry::collect_fabric(metrics, *lan.fabric, "ethernet");
  for (auto& n : lan.nodes) telemetry::collect_st(metrics, *n->st);
  telemetry::collect_rkom(metrics, rk_client);
  telemetry::collect_rkom(metrics, rk_server);
  telemetry::collect_fault(metrics, injector, "lan");
  telemetry::collect_sim(metrics, lan.sim);  // event-engine counters (§10)
  ledger.collect(metrics);

  print_header("metric registry");
  std::printf("%s", telemetry::report(metrics).c_str());

  const std::string jsonl =
      telemetry::to_jsonl(metrics) + telemetry::to_jsonl(ledger);
  if (telemetry::write_file("telemetry_report.jsonl", jsonl).ok()) {
    std::printf("\nwrote telemetry_report.jsonl (%zu metrics, %zu streams)\n",
                metrics.size(), ledger.streams());
  }
  if (telemetry::write_file("telemetry_trace.json",
                            telemetry::to_chrome_trace(trace))
          .ok()) {
    std::printf("wrote telemetry_trace.json (%zu events retained, %llu dropped "
                "by the ring)\n",
                trace.size(), static_cast<unsigned long long>(trace.dropped()));
  }

  // Detach the registry and trace before they go out of scope ahead of the
  // layers that hold pointers into them.
  for (auto& n : lan.nodes) {
    n->st->set_metrics(nullptr);
    n->st->set_trace(nullptr);
  }
  lan.fabric->set_metrics(nullptr);
  rk_client.set_metrics(nullptr);
  injector.set_trace(nullptr);
  return 0;
}
