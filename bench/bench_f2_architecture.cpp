// F2 (Figure 2, §3): the whole DASH communication architecture at once.
//
// RKOM request/reply, a reliable bulk stream, and a real-time voice stream
// share one subtransport layer, one network-RMS fabric, and one segment —
// exactly the stack of Figure 2. The table reports each service's metrics
// while coexisting. Shape: all three meet their goals simultaneously
// because each told the provider what it needs.
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

int main() {
  title("F2", "the DASH architecture: RKOM + stream protocol + voice over one ST");

  auto lan = node::ethernet_world(3);

  // --- voice: host 1 -> host 2, statistical RMS ------------------------
  rms::Port voice_port;
  lan.node(2).ports.bind(70, &voice_port);
  auto voice_rms =
      lan.node(1).st->create(workload::voice_request(msec(40)), {2, 70});
  if (!voice_rms) {
    std::printf("voice rejected: %s\n", voice_rms.error().message.c_str());
    return 1;
  }
  Samples voice_ms;
  telemetry::GuaranteeLedger voice_ledger;
  voice_ledger.open(1, "voice", voice_rms.value()->params(), 1, 2);
  voice_port.set_handler([&](rms::Message m) {
    const Time delay = lan.sim.now() - m.sent_at;
    voice_ms.add(to_millis(delay));
    voice_ledger.on_delivery(1, delay, m.size());
  });
  workload::PacedSource voice(lan.sim, workload::kVoiceFrameInterval,
                              workload::kVoiceFrameBytes, [&](Bytes f) {
                                rms::Message m;
                                m.data = std::move(f);
                                (void)voice_rms.value()->send(std::move(m));
                              });

  // --- bulk stream: host 1 -> host 3 ----------------------------------
  transport::StreamConfig bulk_cfg;
  transport::StreamReceiver bulk_rx(*lan.node(3).st, lan.node(3).ports, 60, bulk_cfg);
  std::size_t bulk_bytes = 0;
  bulk_rx.on_data([&](Bytes b) { bulk_bytes += b.size(); });
  transport::StreamSender bulk_tx(*lan.node(1).st, lan.node(1).ports, {3, 60},
                                  bulk_cfg,
                                  transport::bulk_data_request(64 * 1024, 1400));
  Feeder feeder(bulk_tx);

  // --- RKOM: host 2 calls host 3 ---------------------------------------
  rkom::RkomNode rkom_client(*lan.node(2).st, lan.node(2).ports);
  rkom::RkomNode rkom_server(*lan.node(3).st, lan.node(3).ports);
  rkom_server.register_operation(
      1, {[](BytesView in) { return Bytes(in.begin(), in.end()); }, usec(200)});
  Samples rpc_ms;
  int rpc_outstanding = 0;
  std::function<void()> issue_rpc = [&] {
    ++rpc_outstanding;
    const Time started = lan.sim.now();
    rkom_client.call(3, 1, patterned_bytes(128, 1), [&, started](Result<Bytes> r) {
      --rpc_outstanding;
      if (r.ok()) rpc_ms.add(to_millis(lan.sim.now() - started));
      lan.sim.after(msec(25), issue_rpc);
    });
  };

  voice.start();
  issue_rpc();
  lan.sim.run_until(sec(20));
  voice.stop();
  lan.sim.run_for(sec(1));

  const double elapsed = to_seconds(lan.sim.now());
  std::printf("%-34s %12s %12s %12s\n", "service", "count", "mean ms", "p99 ms");
  std::printf("%-34s %12zu %12.2f %12.2f\n", "voice frames (bound 40 ms)",
              voice_ms.count(), voice_ms.mean(), voice_ms.percentile(0.99));
  std::printf("%-34s %12zu %12.2f %12.2f\n", "RKOM calls", rpc_ms.count(),
              rpc_ms.mean(), rpc_ms.percentile(0.99));
  std::printf("%-34s %9.2f MB %12s %12s\n", "bulk stream delivered",
              static_cast<double>(bulk_bytes) / 1e6, "-", "-");
  std::printf("%-34s %9.2f %%\n", "voice miss rate (A+B*size)",
              100.0 * voice_ledger.find(1)->miss_fraction());
  std::printf("%-34s %9.2f kB/s\n", "bulk goodput",
              static_cast<double>(bulk_bytes) / elapsed / 1e3);

  const auto& st1 = lan.node(1).st->stats();
  std::printf("\nST on host 1: %llu ST RMS over %llu network RMS "
              "(%llu mux joins), %llu packets for %llu components\n",
              static_cast<unsigned long long>(st1.st_rms_created),
              static_cast<unsigned long long>(st1.net_rms_created),
              static_cast<unsigned long long>(st1.mux_joins),
              static_cast<unsigned long long>(st1.network_messages),
              static_cast<unsigned long long>(st1.components_sent));

  note("\nShape check: voice holds its bound and RPC stays at a few ms while");
  note("the bulk stream takes the remaining bandwidth — the Figure-2 stack");
  note("serves all three classes concurrently.");
  return 0;
}
