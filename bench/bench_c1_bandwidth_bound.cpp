// C1 (§2.2): the implied bandwidth bound.
//
// "If M is the maximum message size, D the maximum delay of a message of
// size M, and C the RMS capacity, then a client can send a message of size
// M every D·M/C seconds ... this will provide a bandwidth of about C/D
// bytes per second. The actual maximum bandwidth may be lower (errors and
// protocol overhead) or higher (actual delays smaller than the bound)."
//
// Sweep (C, D), pace a sender at exactly the implied schedule, and compare
// measured goodput against C/D. Shape: measured/implied ≈ 1 when the
// network can carry C/D, and the schedule never violates capacity.
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

int main() {
  title("C1", "implied bandwidth: measured goodput vs C/D");

  BenchJson json("c1_bandwidth_bound");
  std::printf("%-12s %-12s %14s %14s %14s %8s\n", "capacity", "delay bound",
              "implied B/s", "measured B/s", "ratio", "late");

  for (std::uint64_t capacity : {4096u, 16384u, 49152u}) {
    for (Time delay_a : {msec(20), msec(60), msec(200)}) {
      auto lan = node::ethernet_world(2);
      rms::Params desired;
      desired.capacity = capacity;
      desired.max_message_size = 1024;
      desired.delay.type = rms::BoundType::kDeterministic;
      desired.delay.a = delay_a;
      desired.delay.b_per_byte = usec(2);
      desired.bit_error_rate = 1e-6;
      rms::Params acceptable = desired;
      acceptable.capacity = 1024;
      acceptable.bit_error_rate = 1.0;

      rms::Port port;
      lan.node(2).ports.bind(70, &port);
      auto stream = lan.node(1).st->create({desired, acceptable}, {2, 70});
      if (!stream) {
        std::printf("%-12llu %-12s %14s (rejected: %s)\n",
                    static_cast<unsigned long long>(capacity),
                    format_time(delay_a).c_str(), "-",
                    stream.error().message.c_str());
        continue;
      }
      const auto& params = stream.value()->params();
      const double implied = rms::implied_bandwidth_bytes_per_sec(params);
      const Time d = params.delay.bound_for(params.max_message_size);
      const Time interval = d * static_cast<Time>(params.max_message_size) /
                            static_cast<Time>(params.capacity);

      int late = 0;
      port.set_handler([&](rms::Message m) {
        if (lan.sim.now() - m.sent_at > d) ++late;
      });

      // Pace at exactly one maximum-size message per interval.
      workload::PacedSource source(lan.sim, interval, params.max_message_size,
                                   [&](Bytes f) {
                                     rms::Message m;
                                     m.data = std::move(f);
                                     (void)stream.value()->send(std::move(m));
                                   });
      source.start();
      lan.sim.run_until(sec(10));
      source.stop();
      lan.sim.run_for(sec(1));

      const double measured =
          static_cast<double>(port.bytes_delivered()) / to_seconds(sec(10));
      std::printf("%-12llu %-12s %14.0f %14.0f %14.3f %8d\n",
                  static_cast<unsigned long long>(params.capacity),
                  format_time(params.delay.a).c_str(), implied, measured,
                  measured / implied, late);
      const std::map<std::string, std::string> tags = {
          {"capacity", std::to_string(params.capacity)},
          {"delay_a", format_time(params.delay.a)}};
      json.record("measured_goodput", measured, "B/s", tags);
      json.record("measured_over_implied", measured / implied, "ratio", tags);
      json.record("late_deliveries", late, "messages", tags);
    }
  }

  note("\nShape check: the paced schedule achieves >= ~1.0x the implied C/D");
  note("without a single late delivery — the §2.2 rule is safe; tighter");
  note("bounds or larger capacity raise the achievable rate proportionally.");
  return 0;
}
