// Voice conference: the paper's headline workload (§2.5).
//
// Four digitized-voice calls (64 kb/s, 160-byte frames every 20 ms) share
// an Ethernet segment with a bulk transfer. Each call uses a
// statistical-delay-bound RMS with a tolerant error rate; the bulk stream
// uses a high-capacity/high-delay RMS. Deadline-ordered interface queues
// let voice frames overtake queued bulk packets, so every call meets its
// bound — run it and watch the per-call delay statistics.
#include <cstdio>

#include "example_util.h"
#include "telemetry/ledger.h"
#include "transport/stream.h"
#include "util/stats.h"
#include "workload/workload.h"

using namespace dash;

int main() {
  auto lan = node::ethernet_world(/*hosts=*/4);

  examples::print_header("Voice calls with a bulk transfer in the background");

  struct Call {
    std::unique_ptr<rms::Rms> stream;
    rms::Port inbox;
    std::unique_ptr<workload::PacedSource> source;
    Samples delays_ms;
    rms::PortId port = 0;  ///< its ledger account
  };
  std::vector<std::unique_ptr<Call>> calls;
  telemetry::GuaranteeLedger ledger;  // one account per call, by its port

  // Calls: 1->2, 2->1, 3->4, 4->3, each on its own statistical RMS.
  const std::pair<rms::HostId, rms::HostId> pairs[] = {{1, 2}, {2, 1}, {3, 4}, {4, 3}};
  rms::PortId next_port = 70;
  for (auto [from, to] : pairs) {
    auto call = std::make_unique<Call>();
    const rms::PortId port = next_port++;
    call->port = port;
    lan.node(to).ports.bind(port, &call->inbox);

    auto created = lan.node(from).st->create(workload::voice_request(msec(40)),
                                             rms::Label{to, port});
    if (!created) {
      std::printf("call %llu->%llu rejected: %s\n",
                  static_cast<unsigned long long>(from),
                  static_cast<unsigned long long>(to),
                  created.error().message.c_str());
      return 1;
    }
    call->stream = std::move(created).value();
    std::printf("call %llu->%llu admitted: %s\n",
                static_cast<unsigned long long>(from),
                static_cast<unsigned long long>(to),
                rms::to_string(call->stream->params()).c_str());

    Call* raw = call.get();
    ledger.open(port, "voice", call->stream->params(), from, to);
    call->inbox.set_handler([raw, &lan, &ledger, port](rms::Message m) {
      const Time delay = lan.sim.now() - m.sent_at;
      raw->delays_ms.add(to_millis(delay));
      ledger.on_delivery(port, delay, m.size());
    });
    call->source = std::make_unique<workload::PacedSource>(
        lan.sim, workload::kVoiceFrameInterval, workload::kVoiceFrameBytes,
        [raw](Bytes frame) {
          rms::Message m;
          m.data = std::move(frame);
          (void)raw->stream->send(std::move(m));
        });
    calls.push_back(std::move(call));
  }

  // The competing bulk transfer from host 1 to host 4.
  transport::StreamConfig bulk_config;
  bulk_config.receiver_flow_control = false;
  bulk_config.capacity = transport::CapacityMode::kAckBased;
  transport::StreamReceiver bulk_rx(*lan.node(4).st, lan.node(4).ports, 60,
                                    bulk_config);
  std::size_t bulk_bytes = 0;
  bulk_rx.on_data([&](Bytes b) { bulk_bytes += b.size(); });
  transport::StreamSender bulk_tx(*lan.node(1).st, lan.node(1).ports,
                                  rms::Label{4, 60}, bulk_config,
                                  transport::bulk_data_request(128 * 1024, 1400));

  // Keep the bulk sender saturated for the whole run.
  std::function<void()> feed = [&] {
    while (bulk_tx.write(patterned_bytes(4096, bulk_bytes)).ok()) {
    }
  };
  bulk_tx.on_writable(feed);
  feed();

  for (auto& call : calls) call->source->start();
  lan.sim.run_until(sec(20));
  for (auto& call : calls) call->source->stop();
  lan.sim.run_for(sec(1));

  examples::print_header("Per-call delay statistics (bound: 40 ms, P >= 0.95)");
  std::printf("%-8s %10s %10s %10s %10s %12s\n", "call", "frames", "mean ms",
              "p99 ms", "max ms", "miss rate");
  int idx = 0;
  for (auto& call : calls) {
    auto& d = call->delays_ms;
    std::printf("%-8d %10zu %10.2f %10.2f %10.2f %11.2f%%\n", ++idx, d.count(),
                d.mean(), d.percentile(0.99), d.max(),
                100.0 * ledger.find(call->port)->miss_fraction());
  }
  std::printf("\nbulk transfer delivered %.1f MB alongside the calls\n",
              static_cast<double>(bulk_bytes) / 1e6);
  return 0;
}
