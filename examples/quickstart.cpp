// Quickstart: create a real-time message stream between two hosts and
// watch a message cross the DASH stack.
//
//   $ ./quickstart
//
// Demonstrates the core API: build a simulated network, attach hosts with
// subtransport layers, request an RMS with desired + acceptable parameter
// sets, inspect the negotiated actual parameters, and exchange messages.
#include <cstdio>

#include "example_util.h"

using namespace dash;

int main() {
  auto lan = node::ethernet_world(/*hosts=*/2);

  examples::print_header("1. Request an ST RMS from host 1 to host 2");

  // Desired: tight delay bound, privacy. Acceptable: looser fallbacks.
  rms::Params desired;
  desired.capacity = 32 * 1024;
  desired.max_message_size = 4 * 1024;
  desired.quality.privacy = true;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(20);
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(1);
  acceptable.delay.b_per_byte = usec(200);
  acceptable.capacity = 4 * 1024;
  acceptable.max_message_size = 512;
  acceptable.bit_error_rate = 1e-3;

  // The receiver binds a port; delivery means enqueueing there (§2).
  rms::Port inbox;
  lan.node(2).ports.bind(/*port id=*/50, &inbox);

  auto stream = lan.node(1).st->create({desired, acceptable}, rms::Label{2, 50});
  if (!stream) {
    std::printf("creation rejected: %s\n", stream.error().message.c_str());
    return 1;
  }

  std::printf("requested: %s\n", rms::to_string(desired).c_str());
  std::printf("actual:    %s\n", rms::to_string(stream.value()->params()).c_str());
  std::printf("implied bandwidth: %.0f bytes/sec (the paper's C/D rule)\n",
              rms::implied_bandwidth_bytes_per_sec(stream.value()->params()));

  examples::print_header("2. Send messages (boundaries preserved, in order)");

  inbox.set_handler([&](rms::Message m) {
    std::printf("  t=%-10s delivered %3zu bytes  delay=%-10s  \"%s\"\n",
                format_time(lan.sim.now()).c_str(), m.size(),
                format_time(lan.sim.now() - m.sent_at).c_str(),
                to_string(m.data).c_str());
  });

  const char* lines[] = {"hello over RMS", "message boundaries survive",
                         "and arrive in sequence"};
  for (const char* line : lines) {
    rms::Message m;
    m.data = to_bytes(line);
    if (auto s = stream.value()->send(std::move(m)); !s.ok()) {
      std::printf("send failed: %s\n", s.error().message.c_str());
    }
  }
  lan.sim.run();

  examples::print_header("3. What the layers did");
  const auto& st_stats = lan.node(1).st->stats();
  std::printf("control messages exchanged:   %llu (auth + establishment)\n",
              static_cast<unsigned long long>(st_stats.control_messages));
  std::printf("network RMS created:          %llu (cached for reuse)\n",
              static_cast<unsigned long long>(st_stats.net_rms_created));
  std::printf("client messages sent:         %llu\n",
              static_cast<unsigned long long>(st_stats.messages_sent));
  std::printf("network packets used:         %llu (piggybacking combined %llu)\n",
              static_cast<unsigned long long>(st_stats.network_messages),
              static_cast<unsigned long long>(st_stats.piggybacked));
  std::printf("bytes encrypted for privacy:  %llu (untrusted network)\n",
              static_cast<unsigned long long>(st_stats.bytes_encrypted));
  return 0;
}
