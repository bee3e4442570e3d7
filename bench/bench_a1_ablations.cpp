// A1 — ablations of this implementation's design choices (DESIGN.md §5).
//
// Three knobs the paper leaves open, swept to justify the defaults:
//
//   1. Piggyback window (§4.3.1 leaves the queueing policy open): packet
//      reduction vs added latency for a multiplexed small-message load.
//   2. Idle-flush heuristic (ours; the paper's literal algorithm would
//      hold every message for possible piggybacking): latency of a lone
//      message on an idle channel vs the same message on a channel kept
//      busy by chatter (where the heuristic correctly defers to sharing),
//      and vs the busy-channel message sent with a transmission deadline
//      of now (§4.3.1), which ends its wait but still shares its packet.
//   3. Stream-protocol retransmission timeout (the paper says nothing
//      about retransmission policy): recovery time on a lossy link.
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

namespace {

rms::Request small_message_request() {
  rms::Params desired;
  desired.capacity = 4 * 1024;
  desired.max_message_size = 256;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(100);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 256;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return {desired, acceptable};
}

// ------------------------------------------------------ 1. window sweep
void window_sweep() {
  std::printf("1) piggyback window sweep (8 streams of 64 B every 10 ms)\n");
  std::printf("%-12s %10s %14s %12s\n", "window", "packets", "comp/packet",
              "mean delay");
  for (Time window : {msec(0), msec(1), msec(2), msec(5), msec(10)}) {
    st::StConfig config;
    config.piggyback_window = window;
    config.mux_provision_factor = 8;
    auto lan = node::ethernet_world(2, net::ethernet_traits(), 7,
                                    net::Discipline::kDeadline, {.st = config});

    auto request = small_message_request();
    Samples delay_ms;
    std::vector<std::unique_ptr<rms::Rms>> streams;
    std::vector<std::unique_ptr<rms::Port>> ports;
    std::vector<std::unique_ptr<workload::PacedSource>> sources;
    for (int i = 0; i < 8; ++i) {
      auto port = std::make_unique<rms::Port>();
      lan.node(2).ports.bind(100 + static_cast<rms::PortId>(i), port.get());
      port->set_handler([&delay_ms, &lan](rms::Message m) {
        delay_ms.add(to_millis(lan.sim.now() - m.sent_at));
      });
      auto created =
          lan.node(1).st->create(request, {2, 100 + static_cast<rms::PortId>(i)});
      streams.push_back(std::move(created).value());
      ports.push_back(std::move(port));
      auto* stream = streams.back().get();
      sources.push_back(std::make_unique<workload::PacedSource>(
          lan.sim, msec(10), 64, [stream](Bytes f) {
            rms::Message m;
            m.data = std::move(f);
            (void)stream->send(std::move(m));
          }));
      lan.sim.at(usec(300 * i), [src = sources.back().get()] { src->start(); });
    }
    lan.sim.run_until(sec(10));
    for (auto& s : sources) s->stop();
    lan.sim.run_for(msec(500));

    const auto& st = lan.node(1).st->stats();
    std::printf("%-12s %10llu %14.2f %9.2f ms\n", format_time(window).c_str(),
                static_cast<unsigned long long>(st.network_messages),
                st.network_messages ? static_cast<double>(st.components_sent) /
                                          static_cast<double>(st.network_messages)
                                    : 0.0,
                delay_ms.mean());
  }
  note("   -> 2 ms (the default) already buys most of the packet reduction;");
  note("      larger windows trade latency for diminishing sharing gains.\n");
}

// ----------------------------------------------- 2. idle-flush heuristic
/// Host 1's data packets on `tap` that carry a component of one ST RMS.
struct CarrierPackets {
  int packets = 0;
  int shared = 0;      ///< packets that carry another component too
  int components = 0;  ///< components of every kind in those packets
};

CarrierPackets packets_carrying(const net::Eavesdropper& tap, std::uint64_t stream_id) {
  CarrierPackets out;
  for (const net::Packet& p : tap.captured()) {
    if (p.src != 1 || p.size() <= netrms::kHeaderBytes) continue;
    Reader r(p.payload.view().subspan(netrms::kHeaderBytes));
    auto tag = r.u8();
    auto count = r.u8();
    if (!tag || *tag != st::kStDataTag || !count) continue;  // control message
    bool found = false;
    for (int i = 0; i < *count; ++i) {
      auto c = st::read_component(r);
      if (!c) break;
      found = found || c->stream_id == stream_id;
    }
    if (!found) continue;
    ++out.packets;
    out.components += *count;
    if (*count > 1) ++out.shared;
  }
  return out;
}

void idle_flush_ablation() {
  std::printf("2) idle-flush heuristic: lone message vs busy channel (window 5 ms)\n");
  std::printf("%-24s %14s\n", "channel state", "one-way delay");
  enum class Row { kIdle, kBusy, kBusyDeadlineNow };
  std::string sharing;
  for (Row row : {Row::kIdle, Row::kBusy, Row::kBusyDeadlineNow}) {
    const bool busy = row != Row::kIdle;
    st::StConfig config;
    config.piggyback_window = msec(5);
    config.mux_provision_factor = 8;
    auto lan = node::ethernet_world(2, net::ethernet_traits(), 7,
                                    net::Discipline::kDeadline, {.st = config});
    net::Eavesdropper tap(*lan.network);

    rms::Port probe_port;
    lan.node(2).ports.bind(90, &probe_port);
    auto probe = lan.node(1).st->create(small_message_request(), {2, 90});

    std::unique_ptr<rms::Rms> chatter;
    rms::Port chatter_port;
    std::unique_ptr<workload::PacedSource> chatter_src;
    if (busy) {
      lan.node(2).ports.bind(91, &chatter_port);
      auto created = lan.node(1).st->create(small_message_request(), {2, 91});
      chatter = std::move(created).value();
      chatter_src = std::make_unique<workload::PacedSource>(
          lan.sim, msec(1), 64, [&chatter](Bytes f) {
            rms::Message m;
            m.data = std::move(f);
            (void)chatter->send(std::move(m));
          });
      chatter_src->start();
    }

    Samples delay_ms;
    probe_port.set_handler([&](rms::Message m) {
      delay_ms.add(to_millis(lan.sim.now() - m.sent_at));
    });
    // Lone probes, 50 ms apart — far beyond the window, so on an idle
    // channel the heuristic sends each immediately.
    workload::PacedSource probe_src(lan.sim, msec(50), 200, [&](Bytes f) {
      rms::Message m;
      m.data = std::move(f);
      const bool now = row == Row::kBusyDeadlineNow;
      (void)probe.value()->send(std::move(m), now ? lan.sim.now() : kTimeNever);
    });
    probe_src.start();
    lan.sim.run_until(sec(10));
    probe_src.stop();
    if (chatter_src) chatter_src->stop();
    lan.sim.run_for(msec(500));

    const char* label = row == Row::kIdle   ? "idle"
                        : row == Row::kBusy ? "busy (chatter @ 1ms)"
                                            : "busy, deadline now";
    std::printf("%-24s %11.2f ms\n", label, delay_ms.mean());
    if (busy) {
      const CarrierPackets c =
          packets_carrying(tap, dynamic_cast<st::StRms&>(*probe.value()).id());
      char line[128];
      std::snprintf(line, sizeof line, "      %-22s %d of %d, %.2f components each\n",
                    label, c.shared, c.packets,
                    c.packets ? static_cast<double>(c.components) / c.packets : 0.0);
      sharing += line;
    }
  }
  note("   -> on an idle channel the lone message goes immediately; on a busy");
  note("      one it waits (bounded by the window) and shares a packet — the");
  note("      heuristic spends latency only where piggybacking actually pays.");
  note("      A transmission deadline of now (§4.3.1) ends the wait: the message");
  note("      leaves after the CPU stages, still taking the queued chatter along,");
  note("      whose receive-side processing it then waits for. Probe packets that");
  note("      carried chatter:");
  std::printf("%s\n", sharing.c_str());
}

// --------------------------------------------- 3. retransmit timeout sweep
void rto_sweep() {
  std::printf("3) stream retransmission timeout on a 1e-5 BER LAN (50 KB reliable)\n");
  std::printf("%-12s %14s %14s\n", "rto", "completion", "retransmits");
  for (Time rto : {msec(100), msec(200), msec(400), msec(800)}) {
    auto traits = net::ethernet_traits();
    traits.bit_error_rate = 1e-5;
    auto lan = node::ethernet_world(2, traits, 7);
    transport::StreamConfig cfg;
    cfg.retransmit_timeout = rto;
    transport::StreamReceiver rx(*lan.node(2).st, lan.node(2).ports, 60, cfg);
    std::size_t got = 0;
    Time done_at = 0;
    rx.on_data([&](Bytes b) {
      got += b.size();
      if (got >= 50'000 && done_at == 0) done_at = lan.sim.now();
    });
    transport::StreamSender tx(*lan.node(1).st, lan.node(1).ports, {2, 60}, cfg);
    Feeder feeder(tx, 50'000);
    lan.sim.run_until(sec(60));
    std::printf("%-12s %11.2f s %14llu\n", format_time(rto).c_str(),
                done_at ? to_seconds(done_at) : -1.0,
                static_cast<unsigned long long>(tx.stats().retransmissions));
  }
  note("   -> shorter RTOs recover faster at a modest duplicate cost; the");
  note("      400 ms default balances recovery speed against spurious resends.");
}

}  // namespace

int main() {
  title("A1", "ablations: piggyback window, idle flush, retransmit timeout");
  window_sweep();
  idle_flush_ablation();
  rto_sweep();
  return 0;
}
