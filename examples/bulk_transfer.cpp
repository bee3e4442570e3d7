// Bulk transfer across a wide-area internetwork (paper §4.4, Figure 5).
//
// A 2 MB reliable transfer crosses a T1 dumbbell with 40 ms RTT. The
// stream protocol composes the paper's independent flow-control
// mechanisms: ack-based RMS capacity enforcement (fast acks from the
// receiving ST), receiver flow control (window on reliability acks), and
// sender flow control (the flow-controlled IPC port). The example prints
// progress and the final accounting.
#include <cstdio>

#include "example_util.h"
#include "transport/stream.h"

using namespace dash;

int main() {
  auto wan = node::dumbbell_world(/*left=*/{1}, /*right=*/{2});

  examples::print_header("2 MB reliable transfer over a T1 dumbbell");

  transport::StreamConfig config;
  config.reliable = true;
  config.capacity = transport::CapacityMode::kAckBased;
  config.receiver_flow_control = true;
  config.message_size = 512;  // fits the 576-byte internet MTU path

  transport::StreamReceiver receiver(*wan.node(2).st, wan.node(2).ports, 60, config);
  std::size_t received = 0;
  receiver.on_data([&](Bytes b) { received += b.size(); });

  transport::StreamSender sender(*wan.node(1).st, wan.node(1).ports,
                                 rms::Label{2, 60}, config,
                                 transport::bulk_data_request(32 * 1024, 512));
  if (!sender.ok()) {
    std::printf("stream rejected: %s\n", sender.creation_error().message.c_str());
    return 1;
  }
  std::printf("data RMS: %s\n", rms::to_string(sender.data_params()).c_str());

  constexpr std::size_t kTotal = 2 * 1024 * 1024;
  std::size_t written = 0;
  std::function<void()> feed = [&] {
    while (written < kTotal) {
      const std::size_t n = std::min<std::size_t>(4096, kTotal - written);
      if (!sender.write(patterned_bytes(n, written)).ok()) return;
      written += n;
    }
  };
  sender.on_writable(feed);
  feed();

  // Progress reporting each simulated second.
  for (int s = 1; s <= 120 && received < kTotal; ++s) {
    wan.sim.run_until(sec(s));
    if (s % 5 == 0 || received >= kTotal) {
      std::printf("t=%3ds  received %7.2f%% (%zu bytes), outstanding %llu, "
                  "retransmits %llu\n",
                  s, 100.0 * static_cast<double>(received) / kTotal, received,
                  static_cast<unsigned long long>(sender.capacity_outstanding()),
                  static_cast<unsigned long long>(sender.stats().retransmissions));
    }
  }
  wan.sim.run_for(sec(5));

  examples::print_header("Accounting");
  const double elapsed = to_seconds(wan.sim.now());
  std::printf("delivered:        %zu / %zu bytes\n", received, kTotal);
  std::printf("goodput:          %.1f kB/s (trunk is 193 kB/s raw)\n",
              static_cast<double>(received) / elapsed / 1e3);
  std::printf("data messages:    %llu (+%llu retransmissions)\n",
              static_cast<unsigned long long>(sender.stats().messages_sent -
                                              sender.stats().retransmissions),
              static_cast<unsigned long long>(sender.stats().retransmissions));
  std::printf("reliability acks: %llu\n",
              static_cast<unsigned long long>(receiver.stats().acks_sent));
  std::printf("fast acks (capacity enforcement): %llu\n",
              static_cast<unsigned long long>(
                  wan.node(2).st->stats().fast_acks_sent));
  std::printf("sender blocked by IPC port: %llu times\n",
              static_cast<unsigned long long>(sender.stats().write_blocked));
  std::printf("gateway drops:    %llu (capacity kept buffers safe)\n",
              static_cast<unsigned long long>(wan.network->gateway_drops()));
  return received == kTotal ? 0 : 1;
}
