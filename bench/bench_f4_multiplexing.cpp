// F4 (Figure 4, §4.2, §4.3.1): upward multiplexing and piggybacking.
//
// N low-rate ST RMS from one host to one peer are multiplexed onto a
// single network RMS; messages inside the piggyback window share packets.
// Sweep N and compare against piggybacking disabled. Reported: network
// packets used, components per packet, and header+framing overhead per
// client byte. Shape: packets drop and per-byte overhead shrinks as N
// grows with piggybacking on; without it both are flat and worse.
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct MuxResult {
  std::uint64_t client_messages;
  std::uint64_t network_packets;
  double components_per_packet;
  double wire_bytes_per_client_byte;
  std::uint64_t network_rms_used;
  double mean_delay_ms;
};

MuxResult run(int streams, bool piggyback) {
  st::StConfig config;
  config.piggyback_window = piggyback ? msec(4) : 0;
  config.mux_provision_factor = 16;  // allow all streams on one network RMS
  auto lan = node::ethernet_world(2, net::ethernet_traits(), 7,
                                  net::Discipline::kDeadline, {.st = config});

  rms::Params desired;
  desired.capacity = 4 * 1024;
  desired.max_message_size = 96;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(50);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 96;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;

  std::vector<std::unique_ptr<rms::Rms>> rms_v;
  std::vector<std::unique_ptr<rms::Port>> ports;
  Samples delay_ms;
  for (int i = 0; i < streams; ++i) {
    auto port = std::make_unique<rms::Port>();
    lan.node(2).ports.bind(100 + static_cast<rms::PortId>(i), port.get());
    port->set_handler([&delay_ms, &lan](rms::Message m) {
      delay_ms.add(to_millis(lan.sim.now() - m.sent_at));
    });
    auto created = lan.node(1).st->create(
        {desired, acceptable}, {2, 100 + static_cast<rms::PortId>(i)});
    rms_v.push_back(std::move(created).value());
    ports.push_back(std::move(port));
  }

  // Each stream sends a 64-byte update every 10 ms, phase-shifted within
  // the piggyback window so sharing is possible but not trivial.
  std::vector<std::unique_ptr<workload::PacedSource>> sources;
  for (int i = 0; i < streams; ++i) {
    auto* stream = rms_v[static_cast<std::size_t>(i)].get();
    sources.push_back(std::make_unique<workload::PacedSource>(
        lan.sim, msec(10), 64, [stream](Bytes f) {
          rms::Message m;
          m.data = std::move(f);
          (void)stream->send(std::move(m));
        }));
    lan.sim.at(usec(200 * i), [src = sources.back().get()] { src->start(); });
  }

  lan.sim.run_until(sec(10));
  for (auto& s : sources) s->stop();
  lan.sim.run_for(sec(1));

  const auto& st = lan.node(1).st->stats();
  MuxResult out{};
  out.client_messages = st.messages_sent;
  out.network_packets = st.network_messages;
  out.components_per_packet =
      st.network_messages
          ? static_cast<double>(st.components_sent) / st.network_messages
          : 0.0;
  const double client_bytes = static_cast<double>(st.messages_sent) * 64.0;
  out.wire_bytes_per_client_byte =
      static_cast<double>(lan.network->stats().bytes_delivered) / client_bytes;
  out.network_rms_used = st.net_rms_created;
  out.mean_delay_ms = delay_ms.mean();
  return out;
}

}  // namespace

int main() {
  title("F4", "ST multiplexing + piggybacking onto one network RMS");

  BenchJson json("f4_multiplexing");
  std::printf("%-8s %-10s %10s %10s %12s %14s %10s %10s\n", "streams", "piggyback",
              "messages", "packets", "comp/packet", "wire B/client B", "net RMS",
              "delay ms");
  for (int streams : {1, 2, 4, 8, 16}) {
    for (bool piggyback : {true, false}) {
      const MuxResult r = run(streams, piggyback);
      std::printf("%-8d %-10s %10llu %10llu %12.2f %14.2f %10llu %10.2f\n", streams,
                  piggyback ? "on" : "off",
                  static_cast<unsigned long long>(r.client_messages),
                  static_cast<unsigned long long>(r.network_packets),
                  r.components_per_packet, r.wire_bytes_per_client_byte,
                  static_cast<unsigned long long>(r.network_rms_used),
                  r.mean_delay_ms);
      const std::map<std::string, std::string> params = {
          {"streams", std::to_string(streams)},
          {"piggyback", piggyback ? "on" : "off"}};
      json.record("network_packets", static_cast<double>(r.network_packets),
                  "packets", params);
      json.record("components_per_packet", r.components_per_packet,
                  "components", params);
      json.record("wire_bytes_per_client_byte", r.wire_bytes_per_client_byte,
                  "bytes/byte", params);
      json.record("mean_delay_ms", r.mean_delay_ms, "ms", params);
    }
  }

  note("\nShape check: with piggybacking on, packets per message fall and");
  note("components per packet rise with the number of multiplexed streams;");
  note("wire bytes per client byte shrink toward the single-header cost.");
  note("All streams ride ONE network RMS either way (upward multiplexing);");
  note("delay grows by at most the piggyback window (§4.2).");
  return 0;
}
