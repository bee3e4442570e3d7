// Full-stack integration tests: every layer of the DASH reproduction
// exercised together — mixed workloads, failure injection mid-transfer,
// establishment races, multi-hop reservations, and security end to end.
#include <gtest/gtest.h>

#include <set>

#include "baseline/sliding_window.h"
#include "util/stats.h"
#include "rkom/rkom.h"
#include "telemetry/ledger.h"
#include "test_helpers.h"
#include "transport/stream.h"
#include "workload/workload.h"

namespace dash {
namespace {

using testing::wan_world;
using testing::st_world;

// --------------------------------------------------------------------
// Mixed workload: voice + bulk + RPC share one segment and one ST per
// host; each service must meet its own goal.
TEST(Integration, MixedWorkloadCoexists) {
  auto world = st_world(3);

  // Voice 1 -> 2.
  rms::Port voice_port;
  world.node(2).ports.bind(70, &voice_port);
  auto voice = world.st(1).create(workload::voice_request(msec(40)), {2, 70});
  ASSERT_TRUE(voice.ok()) << voice.error().message;
  telemetry::GuaranteeLedger ledger;
  const telemetry::StreamAccount& voice_account =
      ledger.open(1, "voice", voice.value()->params(), 1, 2);
  voice_port.set_handler([&](rms::Message m) {
    ledger.on_delivery(1, world.sim.now() - m.sent_at, m.size());
  });
  workload::PacedSource voice_src(world.sim, workload::kVoiceFrameInterval,
                                  workload::kVoiceFrameBytes, [&](Bytes f) {
                                    rms::Message m;
                                    m.data = std::move(f);
                                    (void)voice.value()->send(std::move(m));
                                  });

  // Bulk 1 -> 3, saturating.
  transport::StreamConfig cfg;
  transport::StreamReceiver bulk_rx(world.st(3), world.node(3).ports, 60, cfg);
  std::size_t bulk_bytes = 0;
  bulk_rx.on_data([&](Bytes b) { bulk_bytes += b.size(); });
  transport::StreamSender bulk_tx(world.st(1), world.node(1).ports, {3, 60}, cfg,
                                  transport::bulk_data_request(64 * 1024, 1400));
  ASSERT_TRUE(bulk_tx.ok());
  std::function<void()> feed = [&] {
    while (bulk_tx.write(patterned_bytes(4096, bulk_bytes)).ok()) {
    }
  };
  bulk_tx.on_writable(feed);
  feed();

  // RPC 2 -> 3.
  rkom::RkomNode rpc_client(world.st(2), world.node(2).ports);
  rkom::RkomNode rpc_server(world.st(3), world.node(3).ports);
  rpc_server.register_operation(1, {[](BytesView in) {
    return Bytes(in.begin(), in.end());
  }, usec(100)});
  int rpc_done = 0;
  Samples rpc_ms;
  std::function<void()> call = [&] {
    const Time t0 = world.sim.now();
    rpc_client.call(3, 1, patterned_bytes(64, 1), [&, t0](Result<Bytes> r) {
      if (r.ok()) {
        ++rpc_done;
        rpc_ms.add(to_millis(world.sim.now() - t0));
      }
      world.sim.after(msec(40), call);
    });
  };

  voice_src.start();
  call();
  world.sim.run_until(sec(10));
  voice_src.stop();
  world.sim.run_for(msec(500));

  EXPECT_GE(voice_account.delivered, 490u);
  EXPECT_LT(voice_account.miss_fraction(), 0.01);  // voice met its bound
  EXPECT_GT(bulk_bytes, 5'000'000u);               // bulk moved megabytes
  EXPECT_GT(rpc_done, 200);                        // RPC stayed responsive
  EXPECT_LT(rpc_ms.percentile(0.99), 50.0);
}

// --------------------------------------------------------------------
// Failure injection mid-transfer: the stream's RMS fails, the client is
// notified, and writes start failing.
TEST(Integration, NetworkFailureMidTransferNotifies) {
  auto world = st_world(2);
  transport::StreamConfig cfg;
  transport::StreamReceiver rx(world.st(2), world.node(2).ports, 60, cfg);
  std::size_t got = 0;
  rx.on_data([&](Bytes b) { got += b.size(); });
  transport::StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, cfg);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(tx.write(patterned_bytes(8 * 1024, 1)).ok());
  world.sim.run_until(msec(50));
  EXPECT_GT(got, 0u);

  world.network->set_down(true);
  const auto status = tx.write(patterned_bytes(1024, 2));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kRmsFailed);
}

// --------------------------------------------------------------------
// Establishment race: many streams created at the same instant to the
// same peer share one control channel and authenticate exactly once.
TEST(Integration, ConcurrentEstablishmentSharesOneHandshake) {
  auto world = st_world(2);
  std::vector<std::unique_ptr<rms::Port>> ports;
  std::vector<std::unique_ptr<rms::Rms>> streams;
  for (int i = 0; i < 10; ++i) {
    auto port = std::make_unique<rms::Port>();
    world.node(2).ports.bind(100 + static_cast<rms::PortId>(i), port.get());
    auto s = world.st(1).create(dash::testing::loose_request(),
                                {2, 100 + static_cast<rms::PortId>(i)});
    ASSERT_TRUE(s.ok());
    rms::Message m;
    m.data = to_bytes("stream " + std::to_string(i));
    ASSERT_TRUE(s.value()->send(std::move(m)).ok());
    streams.push_back(std::move(s).value());
    ports.push_back(std::move(port));
  }
  world.sim.run();
  for (auto& port : ports) EXPECT_EQ(port->delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 1u);
}

// --------------------------------------------------------------------
// Multi-hop WAN with deterministic reservations: a reserved voice stream
// crosses three gateways beside a flood and still meets its bound.
TEST(Integration, ReservedStreamSurvivesMultiHopCongestion) {
  auto traits = net::internet_traits();
  traits.buffer_bytes = 16 * 1024;
  node::World<net::InternetNetwork> world;
  sim::Simulator& sim = world.sim;
  net::InternetNetwork& net =
      world.add_network(std::make_unique<net::InternetNetwork>(sim, traits, 3));
  const auto r0 = net.add_router();
  const auto r1 = net.add_router();
  const auto r2 = net.add_router();
  auto trunk = net::internet_trunk_config(net.traits(), net::Discipline::kDeadline);
  net.add_trunk(r0, r1, trunk);
  net.add_trunk(r1, r2, trunk);
  net::SimplexLink::Config access = trunk;
  access.propagation_delay = usec(100);
  access.bits_per_second = 10'000'000;
  net.attach_host(1, r0, access);
  net.attach_host(2, r0, access);
  net.attach_host(9, r2, access);

  for (rms::HostId id : {1, 2, 9}) world.add_node(id);

  // Deterministic voice 1 -> 9 across both trunks.
  rms::Port voice_port;
  world.node(9).ports.bind(70, &voice_port);
  auto request = workload::voice_request(msec(120), /*statistical=*/false);
  request.acceptable.delay.a = msec(250);
  auto voice = world.st(1).create(request, {9, 70});
  ASSERT_TRUE(voice.ok()) << voice.error().message;
  // Let establishment finish before the flood starts; per-message delay
  // bounds do not cover stream setup (§4.2 covers that via caching).
  sim.run_until(msec(500));
  Samples voice_ms;
  telemetry::GuaranteeLedger ledger;
  const telemetry::StreamAccount& voice_account =
      ledger.open(1, "voice", voice.value()->params(), 1, 9);
  voice_port.set_handler([&](rms::Message m) {
    const Time delay = sim.now() - m.sent_at;
    voice_ms.add(to_millis(delay));
    ledger.on_delivery(1, delay, m.size());
  });
  workload::PacedSource voice_src(sim, workload::kVoiceFrameInterval,
                                  workload::kVoiceFrameBytes, [&](Bytes f) {
                                    rms::Message m;
                                    m.data = std::move(f);
                                    (void)voice.value()->send(std::move(m));
                                  });

  // Host 2 floods raw packets through the same path at 2x trunk rate.
  std::function<void()> flood = [&] {
    net::Packet p;
    p.src = 2;
    p.dst = 9;
    p.stream = 12345;
    p.deadline = kTimeNever;
    p.payload = patterned_bytes(500, 1);
    net.send(std::move(p));
    sim.after(usec(1300), flood);
  };

  voice_src.start();
  flood();
  sim.run_until(sec(10));
  voice_src.stop();
  sim.run_for(msec(500));

  const double bound_ms =
      to_millis(voice.value()->params().delay.bound_for(workload::kVoiceFrameBytes));
  // (10 s - 500 ms warmup) / 20 ms = 476 frames; all must arrive.
  EXPECT_GE(voice_account.delivered, 476u);
  EXPECT_LT(voice_account.miss_fraction(), 0.01)
      << "p99=" << voice_ms.percentile(0.99) << " bound=" << bound_ms;
  EXPECT_GT(net.gateway_drops(), 0u);  // the flood did hurt someone
}

// --------------------------------------------------------------------
// Security end to end on a WAN: private + authenticated stream crossing
// gateways; a tap on the network never sees plaintext.
TEST(Integration, PrivateStreamAcrossWan) {
  auto wan = wan_world({1}, {2});
  net::Eavesdropper eve(*wan.network);

  // The WAN's residual loss compounds over ST fragments; accept it.
  auto request = dash::testing::loose_request(16 * 1024, 400, 1.0);
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  request.desired.quality.authenticated = true;
  request.acceptable.quality.authenticated = true;

  rms::Port inbox;
  wan.node(2).ports.bind(50, &inbox);
  auto stream = wan.st(1).create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;

  const Bytes secret = to_bytes("attack at dawn via the north gateway");
  rms::Message m;
  m.data = secret;
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  wan.sim.run();

  ASSERT_EQ(inbox.delivered(), 1u);
  EXPECT_EQ(inbox.poll()->data, secret);
  EXPECT_GT(eve.count(), 0u);
  EXPECT_FALSE(eve.saw_plaintext(to_bytes("attack at dawn")));
}

// --------------------------------------------------------------------
// Stream protocol over a multi-hop lossy WAN: byte-exact delivery.
TEST(Integration, ReliableStreamOverLossyWan) {
  auto traits = net::internet_traits();
  traits.bit_error_rate = 1e-6;
  auto wan = wan_world({1}, {2}, traits, /*seed=*/5);

  transport::StreamConfig cfg;
  cfg.message_size = 400;
  cfg.retransmit_timeout = msec(200);
  transport::StreamReceiver rx(wan.st(2), wan.node(2).ports, 60, cfg);
  Bytes received;
  rx.on_data([&](Bytes b) { append(received, b); });
  transport::StreamSender tx(wan.st(1), wan.node(1).ports, {2, 60}, cfg,
                             transport::bulk_data_request(16 * 1024, 400));
  ASSERT_TRUE(tx.ok()) << tx.creation_error().message;

  const Bytes payload = patterned_bytes(100'000, 9);
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    while (offset < payload.size()) {
      const std::size_t n = std::min<std::size_t>(2048, payload.size() - offset);
      Bytes chunk(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                  payload.begin() + static_cast<std::ptrdiff_t>(offset + n));
      if (!tx.write(std::move(chunk)).ok()) return;
      offset += n;
    }
  };
  tx.on_writable(feed);
  feed();
  wan.sim.run_until(sec(120));

  EXPECT_EQ(received, payload);
}

// --------------------------------------------------------------------
// RKOM across a WAN beside a saturating TCP-like baseline on the *same*
// simulated internet (separate stacks cannot share one network object, so
// the competing load is a raw packet flood).
TEST(Integration, RkomSurvivesCompetingLoad) {
  auto wan = wan_world({1}, {2});
  rkom::RkomNode client(wan.st(1), wan.node(1).ports);
  rkom::RkomNode server(wan.st(2), wan.node(2).ports);
  server.register_operation(1, {[](BytesView in) {
    return Bytes(in.begin(), in.end());
  }, 0});

  // Competing load: 60% of the trunk.
  std::function<void()> flood = [&] {
    net::Packet p;
    p.src = 1;
    p.dst = 2;
    p.stream = 777;
    p.deadline = kTimeNever;
    p.payload = patterned_bytes(500, 2);
    wan.network->send(std::move(p));
    wan.sim.after(usec(4300), flood);
  };
  flood();

  Samples rpc_ms;
  int done = 0;
  std::function<void()> call = [&] {
    const Time t0 = wan.sim.now();
    client.call(2, 1, patterned_bytes(64, 3), [&, t0](Result<Bytes> r) {
      if (r.ok()) {
        ++done;
        rpc_ms.add(to_millis(wan.sim.now() - t0));
      }
      wan.sim.after(msec(100), call);
    });
  };
  call();
  wan.sim.run_until(sec(20));

  // A closed loop of RTT (~45 ms) + 100 ms think time completes at most
  // ~137 calls in 20 s; under the flood it must stay close to that.
  EXPECT_GT(done, 120);
  // RPC latency stays near the RTT: deadline queueing at gateways lets the
  // low-delay RKOM packets pass the flood.
  EXPECT_LT(rpc_ms.percentile(0.95), 120.0);
}

// --------------------------------------------------------------------
// The §2.5 window-system scenario as an assertion: event latency under
// graphics bursts stays within the human budget.
TEST(Integration, WindowSystemLatencyUnderGraphicsLoad) {
  auto world = st_world(2);
  rms::Port event_port, gfx_port;
  world.node(2).ports.bind(80, &event_port);
  world.node(1).ports.bind(81, &gfx_port);
  auto events = world.st(1).create(workload::window_event_request(), {2, 80});
  auto gfx = world.st(2).create(workload::window_graphics_request(), {1, 81});
  ASSERT_TRUE(events.ok());
  ASSERT_TRUE(gfx.ok());

  Samples event_ms;
  event_port.set_handler([&](rms::Message m) {
    event_ms.add(to_millis(world.sim.now() - m.sent_at));
  });
  workload::PoissonSource input(world.sim, 1.0 / 30.0, 48, 7, [&](Bytes e) {
    rms::Message m;
    m.data = std::move(e);
    (void)events.value()->send(std::move(m));
  });
  workload::OnOffSource redraw(world.sim, msec(4), 1400, msec(60), msec(190), 9,
                               [&](Bytes f) {
                                 rms::Message m;
                                 m.data = std::move(f);
                                 (void)gfx.value()->send(std::move(m));
                               });
  input.start();
  redraw.start();
  world.sim.run_until(sec(10));
  input.stop();
  redraw.stop();
  world.sim.run_for(msec(500));

  ASSERT_GT(event_ms.count(), 100u);
  EXPECT_LT(event_ms.percentile(0.99), 100.0);  // human perceptual budget
}

// --------------------------------------------------------------------
// Closing a stream tears down cleanly: the peer drops its demux state and
// later spoofed components for the dead id are counted as unknown.
TEST(Integration, CloseRemovesPeerState) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto a = world.st(1).create(dash::testing::loose_request(), {2, 50});
  ASSERT_TRUE(a.ok());
  a.value()->send([] {
    rms::Message m;
    m.data = to_bytes("before close");
    return m;
  }());
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);

  a.value()->close();
  world.sim.run();

  // A fresh stream works fine and gets a fresh id; the old demux entry is
  // gone (verified indirectly: stats stay clean and delivery continues).
  auto b = world.st(1).create(dash::testing::loose_request(), {2, 50});
  ASSERT_TRUE(b.ok());
  rms::Message m;
  m.data = to_bytes("after close");
  ASSERT_TRUE(b.value()->send(std::move(m)).ok());
  world.sim.run();
  EXPECT_EQ(port.delivered(), 2u);
  EXPECT_EQ(world.st(2).stats().stale_dropped, 0u);
}

// --------------------------------------------------------------------
// Determinism: the same seed reproduces the same world, event for event.
TEST(Integration, SimulationIsDeterministic) {
  auto run_once = [] {
    auto traits = net::ethernet_traits();
    traits.bit_error_rate = 1e-5;
    auto world = st_world(2, traits, /*seed=*/77);
    transport::StreamConfig cfg;
    cfg.retransmit_timeout = msec(150);
    transport::StreamReceiver rx(world.st(2), world.node(2).ports, 60, cfg);
    std::size_t got = 0;
    rx.on_data([&](Bytes b) { got += b.size(); });
    transport::StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, cfg);
    (void)tx.write(patterned_bytes(20'000, 1));
    world.sim.run_until(sec(20));
    return std::make_tuple(got, tx.stats().retransmissions,
                           world.network->stats().delivered, world.sim.now());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dash
