// Tests for the baseline stacks the paper argues against: raw datagrams
// with mandatory checksumming, and the TCP-like sliding-window transport
// with source-quench congestion signalling.
#include <gtest/gtest.h>

#include "baseline/datagram.h"
#include "baseline/sliding_window.h"
#include "net/ethernet.h"
#include "net/internet.h"
#include "netrms/cost_model.h"
#include "test_helpers.h"

namespace dash::baseline {
namespace {

using dash::testing::SimHost;

struct DatagramWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<DatagramService> datagrams;
  std::map<rms::HostId, std::unique_ptr<SimHost>> hosts;

  explicit DatagramWorld(net::NetworkTraits traits = net::ethernet_traits(),
                         std::uint64_t seed = 42, int n = 2) {
    network = std::make_unique<net::EthernetNetwork>(sim, std::move(traits), seed);
    datagrams = std::make_unique<DatagramService>(sim, *network);
    for (int i = 1; i <= n; ++i) {
      auto host = std::make_unique<SimHost>(static_cast<rms::HostId>(i), sim);
      datagrams->register_host(host->id, host->cpu, host->ports);
      hosts[static_cast<rms::HostId>(i)] = std::move(host);
    }
  }

  SimHost& host(rms::HostId id) { return *hosts.at(id); }
};

TEST(Datagram, SendAndDeliver) {
  DatagramWorld world;
  rms::Port port;
  world.host(2).ports.bind(9, &port);
  world.datagrams->send(1, 100, {2, 9}, to_bytes("plain datagram"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  auto m = port.poll();
  EXPECT_EQ(to_string(m->data), "plain datagram");
  EXPECT_EQ(m->source, (rms::Label{1, 100}));
}

TEST(Datagram, ChecksumCatchesCorruption) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 5e-5;
  DatagramWorld world(traits, /*seed=*/7);
  rms::Port port;
  world.host(2).ports.bind(9, &port);
  for (int i = 0; i < 100; ++i) {
    world.sim.at(msec(3 * i), [&world, i] {
      world.datagrams->send(1, 100, {2, 9}, patterned_bytes(500, i));
    });
  }
  world.sim.run();
  EXPECT_GT(world.datagrams->stats().checksum_drops, 0u);
  EXPECT_LT(port.delivered(), 100u);
}

TEST(Datagram, ChecksumAlwaysPaidEvenWithHardware) {
  // The structural flaw §2.1 describes: hardware already validated the
  // frame, yet the datagram stack still computes a software checksum —
  // visible as per-byte CPU time.
  auto traits = net::ethernet_traits();
  traits.hardware_checksum = true;
  DatagramWorld world(traits);
  rms::Port port;
  world.host(2).ports.bind(9, &port);
  world.datagrams->send(1, 100, {2, 9}, patterned_bytes(10'000 > 1400 ? 1400 : 0, 1));
  world.sim.run();
  const netrms::CostModel cost;
  // Send path charged checksum cost despite the hardware.
  EXPECT_GE(world.host(1).cpu.busy_time(),
            cost.message_cost(1400, true, false, false));
}

TEST(Datagram, NoPortDrops) {
  DatagramWorld world;
  world.datagrams->send(1, 100, {2, 77}, to_bytes("nobody"));
  world.sim.run();
  EXPECT_EQ(world.datagrams->stats().no_port_drops, 1u);
}

TEST(Datagram, OversizedPayloadDropped) {
  DatagramWorld world;
  rms::Port port;
  world.host(2).ports.bind(9, &port);
  world.datagrams->send(1, 100, {2, 9}, patterned_bytes(5000, 1));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 0u);
}

// ----------------------------------------------------------------- TCP-like

struct TcpWorld {
  DatagramWorld world;
  TcpLikeConfig config;
  std::unique_ptr<TcpLikeReceiver> receiver;
  std::unique_ptr<TcpLikeSender> sender;
  Bytes received;

  explicit TcpWorld(TcpLikeConfig cfg = {},
                    net::NetworkTraits traits = net::ethernet_traits(),
                    std::uint64_t seed = 42)
      : world(traits, seed), config(cfg) {
    receiver = std::make_unique<TcpLikeReceiver>(*world.datagrams, 2, /*port=*/9, config);
    receiver->on_data([this](Bytes b) { append(received, b); });
    sender = std::make_unique<TcpLikeSender>(*world.datagrams, 1, rms::Label{2, 9},
                                             config);
  }
};

TEST(TcpLike, ReliableTransfer) {
  TcpWorld t;
  const Bytes payload = patterned_bytes(30'000, 4);
  // Feed in chunks respecting the send buffer.
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    while (offset < payload.size()) {
      const std::size_t n = std::min<std::size_t>(4096, payload.size() - offset);
      Bytes chunk(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                  payload.begin() + static_cast<std::ptrdiff_t>(offset + n));
      if (!t.sender->write(std::move(chunk)).ok()) break;
      offset += n;
    }
    if (offset < payload.size()) t.world.sim.after(msec(10), feed);
  };
  feed();
  t.world.sim.run_until(sec(30));
  EXPECT_EQ(t.received, payload);
}

TEST(TcpLike, GoBackNRetransmitsOnLoss) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 4e-6;
  TcpLikeConfig cfg;
  cfg.retransmit_timeout = msec(150);
  TcpWorld t(cfg, traits, /*seed=*/5);
  const Bytes payload = patterned_bytes(40'000, 6);
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    while (offset < payload.size()) {
      const std::size_t n = std::min<std::size_t>(4096, payload.size() - offset);
      Bytes chunk(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                  payload.begin() + static_cast<std::ptrdiff_t>(offset + n));
      if (!t.sender->write(std::move(chunk)).ok()) break;
      offset += n;
    }
    if (offset < payload.size()) t.world.sim.after(msec(10), feed);
  };
  feed();
  t.world.sim.run_until(sec(60));
  EXPECT_EQ(t.received, payload);
  EXPECT_GT(t.sender->stats().retransmissions, 0u);
}

TEST(TcpLike, WindowLimitsOutstandingData) {
  TcpLikeConfig cfg;
  cfg.window_bytes = 4 * 1024;
  TcpWorld t(cfg);
  ASSERT_TRUE(t.sender->write(patterned_bytes(20'000, 1)).ok());
  // Shortly after start, at most one window is outstanding.
  t.world.sim.run_until(usec(100));
  EXPECT_LE(t.sender->stats().bytes_sent, cfg.window_bytes);
  t.world.sim.run_until(sec(30));
  EXPECT_EQ(t.received.size(), 20'000u);
}

TEST(TcpLike, SourceQuenchSlowsSender) {
  // A dumbbell with tiny gateway buffers: the flood overruns them, the
  // gateway quenches, the sender pauses.
  auto traits = net::internet_traits();
  traits.buffer_bytes = 4 * 1024;
  sim::Simulator sim;
  auto network = net::make_dumbbell(sim, traits, 11, {1}, {2});
  network->enable_source_quench(true);
  DatagramService datagrams(sim, *network);
  SimHost h1(1, sim), h2(2, sim);
  datagrams.register_host(1, h1.cpu, h1.ports);
  datagrams.register_host(2, h2.cpu, h2.ports);

  TcpLikeConfig cfg;
  cfg.window_bytes = 32 * 1024;  // far more than the gateway can hold
  cfg.mss = 500;
  TcpLikeReceiver receiver(datagrams, 2, 9, cfg);
  Bytes received;
  receiver.on_data([&](Bytes b) { append(received, b); });
  TcpLikeSender sender(datagrams, 1, {2, 9}, cfg);

  std::size_t offset = 0;
  const std::size_t total = 60'000;
  std::function<void()> feed = [&] {
    while (offset < total) {
      if (!sender.write(patterned_bytes(std::min<std::size_t>(4096, total - offset),
                                        offset))
               .ok()) {
        break;
      }
      offset += std::min<std::size_t>(4096, total - offset);
    }
    if (offset < total) sim.after(msec(20), feed);
  };
  feed();
  sim.run_until(sec(120));

  EXPECT_GT(sender.stats().quenches, 0u);       // the gateway complained
  EXPECT_GT(network->gateway_drops(), 0u);      // after dropping packets
  EXPECT_GT(sender.stats().retransmissions, 0u);
  EXPECT_EQ(received.size(), total);            // reliability still wins through
}

}  // namespace
}  // namespace dash::baseline

// Additional coverage appended: go-back-N semantics and quench unit tests.
namespace dash::baseline {
namespace {

TEST(TcpLike, OutOfOrderSegmentsDroppedNotBuffered) {
  // Go-back-N receivers discard future segments; after a loss the counter
  // proves they were seen and thrown away.
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 1e-5;
  TcpWorld t(TcpLikeConfig{}, traits, /*seed=*/3);
  constexpr std::size_t kTotal = 60 * 1024;
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    while (offset < kTotal) {
      if (!t.sender->write(patterned_bytes(4096, offset)).ok()) break;
      offset += 4096;
    }
    if (offset < kTotal) t.world.sim.after(msec(10), feed);
  };
  feed();
  t.world.sim.run_until(sec(60));
  EXPECT_EQ(t.received.size(), kTotal);  // reliability still completes
  EXPECT_GT(t.receiver->stats().out_of_order_dropped, 0u);
  EXPECT_GT(t.sender->stats().retransmissions, 0u);
}

TEST(Datagram, QuenchCallbackFiresOnGatewayDrop) {
  auto traits = net::internet_traits();
  traits.buffer_bytes = 2 * 1024;
  sim::Simulator sim;
  auto network = net::make_dumbbell(sim, traits, 5, {1}, {2});
  network->enable_source_quench(true);
  DatagramService datagrams(sim, *network);
  dash::testing::SimHost h1(1, sim), h2(2, sim);
  datagrams.register_host(1, h1.cpu, h1.ports);
  datagrams.register_host(2, h2.cpu, h2.ports);
  rms::Port sink;
  h2.ports.bind(9, &sink);

  int quenches = 0;
  datagrams.on_quench(1, [&] { ++quenches; });
  for (int i = 0; i < 200; ++i) {
    datagrams.send(1, 100, {2, 9}, patterned_bytes(500, i));
  }
  sim.run();
  EXPECT_GT(network->gateway_drops(), 0u);
  EXPECT_GT(quenches, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(quenches),
            datagrams.stats().quenches_delivered);
}

TEST(TcpLike, ReceiverWindowNeverOverruns) {
  TcpLikeConfig cfg;
  cfg.receive_buffer = 4 * 1024;
  cfg.auto_drain = false;  // the client never reads
  TcpWorld t(cfg);
  (void)t.sender->write(patterned_bytes(40'000, 1));
  t.world.sim.run_until(sec(10));
  // The advertised window stops the sender at the buffer edge.
  EXPECT_LE(t.receiver->stats().bytes, 4u * 1024u);
  Bytes drained = t.receiver->read(100'000);
  EXPECT_LE(drained.size(), 4u * 1024u);
}

}  // namespace
}  // namespace dash::baseline
