// F1 (Figure 1, §1): network independence of the layered architecture.
//
// The same client code — one ST RMS carrying an echo workload — runs over
// three very different network types (an Ethernet-like segment, a token
// ring, and a wide-area internetwork). The table decomposes the round
// trip into its stages per network. The shape to look for: the client code is unchanged
// while the stage costs change with the substrate; the ST and protocol
// processing overheads are network-independent.
#include "bench_util.h"
#include "net/token_ring.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct EchoResult {
  double net_rms_oneway_ms;  // network RMS alone
  double st_oneway_ms;       // through the full ST
  double rtt_ms;             // application echo round trip
  std::uint64_t control_messages;
};

rms::Request echo_request() {
  rms::Params desired;
  desired.capacity = 16 * 1024;
  desired.max_message_size = 512;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(100);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 512;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return {desired, acceptable};
}

template <typename World>
EchoResult run_echo(World& world, rms::HostId a, rms::HostId b) {
  EchoResult out{};

  // Stage 1: a bare network RMS (no ST), one-way.
  {
    rms::Port sink;
    world.node(b).ports.bind(40, &sink);
    auto net_rms = world.fabric->create(a, echo_request(), {b, 40});
    Samples delay_ms;
    sink.set_handler([&](rms::Message m) {
      delay_ms.add(to_millis(world.sim.now() - m.sent_at));
    });
    for (int i = 0; i < 50; ++i) {
      world.sim.after(msec(10), [&] {
        rms::Message m;
        m.data = patterned_bytes(256, 1);
        (void)net_rms.value()->send(std::move(m));
      });
      world.sim.run_for(msec(10));
    }
    world.sim.run_for(sec(1));
    out.net_rms_oneway_ms = delay_ms.mean();
    world.node(b).ports.unbind(40);
  }

  // Stage 2: ST RMS one-way, and an application-level echo round trip.
  {
    rms::Port there, back_port;
    world.node(b).ports.bind(41, &there);
    world.node(a).ports.bind(42, &back_port);
    auto forward = world.node(a).st->create(echo_request(), {b, 41});
    auto reverse = world.node(b).st->create(echo_request(), {a, 42});

    Samples oneway_ms, rtt_ms;
    there.set_handler([&](rms::Message m) {
      oneway_ms.add(to_millis(world.sim.now() - m.sent_at));
      rms::Message echo;
      echo.data = std::move(m.data);
      echo.sent_at = m.sent_at;  // carry the original timestamp for the RTT
      (void)reverse.value()->send(std::move(echo));
    });
    back_port.set_handler([&](rms::Message m) {
      rtt_ms.add(to_millis(world.sim.now() - m.sent_at));
    });

    for (int i = 0; i < 50; ++i) {
      world.sim.run_for(msec(20));
      rms::Message m;
      m.data = patterned_bytes(256, 2);
      (void)forward.value()->send(std::move(m));
      world.sim.run_for(msec(19));
    }
    world.sim.run_for(sec(1));
    out.st_oneway_ms = oneway_ms.mean();
    out.rtt_ms = rtt_ms.mean();
    out.control_messages = world.node(a).st->stats().control_messages +
                           world.node(b).st->stats().control_messages;
  }
  return out;
}

}  // namespace

int main() {
  title("F1", "network-independent layering: same client, three networks");

  auto lan = node::ethernet_world(2);
  const EchoResult ethernet = run_echo(lan, 1, 2);

  // Two stations on a token ring.
  node::World<net::TokenRingNetwork> ring_world(
      {[](sim::Simulator& sim) {
        return std::make_unique<net::TokenRingNetwork>(
            sim, net::token_ring_traits("token-ring", 2), 1);
      }},
      {1, 2});
  const EchoResult ring = run_echo(ring_world, 1, 2);

  auto wan = node::dumbbell_world({1}, {2});
  const EchoResult internet = run_echo(wan, 1, 2);

  std::printf("%-28s %14s %14s %14s\n", "stage (256-byte messages)", "ethernet",
              "token-ring", "internet");
  std::printf("%-28s %11.3f ms %11.3f ms %11.3f ms\n", "network RMS one-way",
              ethernet.net_rms_oneway_ms, ring.net_rms_oneway_ms,
              internet.net_rms_oneway_ms);
  std::printf("%-28s %11.3f ms %11.3f ms %11.3f ms\n", "ST RMS one-way",
              ethernet.st_oneway_ms, ring.st_oneway_ms, internet.st_oneway_ms);
  std::printf("%-28s %11.3f ms %11.3f ms %11.3f ms\n", "ST overhead (delta)",
              ethernet.st_oneway_ms - ethernet.net_rms_oneway_ms,
              ring.st_oneway_ms - ring.net_rms_oneway_ms,
              internet.st_oneway_ms - internet.net_rms_oneway_ms);
  std::printf("%-28s %11.3f ms %11.3f ms %11.3f ms\n", "application echo RTT",
              ethernet.rtt_ms, ring.rtt_ms, internet.rtt_ms);
  std::printf("%-28s %14llu %14llu %14llu\n", "control messages",
              static_cast<unsigned long long>(ethernet.control_messages),
              static_cast<unsigned long long>(ring.control_messages),
              static_cast<unsigned long long>(internet.control_messages));

  note("\nShape check: the ST overhead (processing + piggyback window) is");
  note("nearly identical across all three networks, while transit delay");
  note("tracks each substrate (token rotation on the ring, gateways on the");
  note("internet) — the network-dependent part sits fully below the RMS");
  note("interface (Fig. 1).");
  return 0;
}
