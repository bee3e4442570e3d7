// Tests for the path manager (DESIGN.md §11): probe-based health tracking
// across multiple networks, transparent failover of ST streams on network
// death and on silent outages, handoff-buffer replay (no loss, duplication,
// or reordering across a failover), and downgrade notification when only
// weaker acceptable parameters fit on the alternate network.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.h"
#include "net/ethernet.h"
#include "netrms/fabric.h"
#include "path/path.h"
#include "st/st.h"
#include "test_helpers.h"
#include "util/serialize.h"

namespace dash::path {
namespace {

using dash::testing::two_net_world;

rms::Request reliable_request() {
  rms::Params desired;
  desired.capacity = 32 * 1024;
  desired.max_message_size = 1024;
  desired.quality.reliable = true;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(20);
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = usec(500);
  acceptable.bit_error_rate = 1.0;
  acceptable.capacity = 1024;
  acceptable.max_message_size = 64;
  return rms::Request{desired, acceptable};
}

rms::Message numbered(int i) {
  rms::Message m;
  m.data = to_bytes(std::to_string(i));
  return m;
}

std::vector<int> collect_ints(rms::Port& port) {
  std::vector<int> got;
  while (auto m = port.poll()) got.push_back(std::stoi(dash::to_string(m->data)));
  return got;
}

// ------------------------------------------------------------------ probes

TEST(Path, ProbesTrackHealthOnEveryNetwork) {
  auto world = two_net_world(2);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  ASSERT_TRUE(stream.value()->send(numbered(0)).ok());
  world.sim.run_until(sec(2));

  PathManager& pm = *world.node(1).path;
  const ProbeHealth* ha = pm.probe_health(2, *world.fabric);
  const ProbeHealth* hb = pm.probe_health(2, *world.media[1].fabric);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_GT(ha->pongs_received, 0u);
  EXPECT_GT(hb->pongs_received, 0u);
  EXPECT_GT(ha->ewma_rtt_ns, 0.0);
  EXPECT_EQ(ha->consecutive_timeouts, 0);
  EXPECT_EQ(hb->consecutive_timeouts, 0);
  EXPECT_GT(pm.stats().probes_sent, 0u);
  EXPECT_EQ(pm.stats().probe_timeouts, 0u);
  // Healthy paths on both networks: both better than a pair never probed
  // (host 3 is on neither network's probe list).
  EXPECT_GT(pm.score(2, *world.fabric), pm.score(3, *world.fabric));
  EXPECT_GT(pm.score(2, *world.media[1].fabric), pm.score(3, *world.media[1].fabric));
}

TEST(Path, PeerWithoutManagerAnswersProbes) {
  // Host 2 joins both networks but runs no path manager. Its ST still
  // answers host 1's pings, each over the network the ping names, so host
  // 1 sees both networks healthy and never moves its stream.
  node::World<net::EthernetNetwork> world(
      {node::ethernet(net::ethernet_traits("eth-a"), 1),
       node::ethernet(net::ethernet_traits("eth-b"), 2)},
      {1});
  world.add_node(2, {.path = {.enabled = false}});
  ASSERT_EQ(world.node(2).path, nullptr);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  constexpr int kMessages = 500;  // one every 10 ms
  rms::Rms* raw = stream.value().get();
  for (int i = 0; i < kMessages; ++i) {
    world.sim.at(msec(10) * (i + 1), [raw, i] { (void)raw->send(numbered(i)); });
  }
  world.sim.run_until(sec(6));

  PathManager& pm = *world.node(1).path;
  const ProbeHealth* ha = pm.probe_health(2, *world.fabric);
  const ProbeHealth* hb = pm.probe_health(2, *world.media[1].fabric);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_GT(ha->pongs_received, 0u);
  EXPECT_GT(hb->pongs_received, 0u);
  EXPECT_EQ(pm.stats().probe_timeouts, 0u);
  EXPECT_EQ(pm.stats().failovers, 0u);
  EXPECT_EQ(collect_ints(inbox).size(), static_cast<std::size_t>(kMessages));
}

TEST(Path, IdleManagerLeavesSimulationQuiescent) {
  // Without a managed stream nothing may keep the event queue alive — a
  // bare run() must terminate (the existing test suites rely on this).
  auto world = two_net_world(2);
  world.sim.run();
  EXPECT_EQ(world.node(1).path->stats().probes_sent, 0u);
}

// ---------------------------------------------------------------- failover

TEST(Path, FailsOverWhenNetworkDies) {
  auto world = two_net_world(2);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  ASSERT_NE(srms, nullptr);
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(stream.value()->send(numbered(i)).ok());
  world.sim.run_until(msec(500));

  // Hard death: the network notifies the fabric, which fails every RMS on
  // it; the path manager must rebind the stream instead of letting it die.
  world.network->set_down(true);
  world.sim.run_until(sec(1));
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.media[1].fabric.get());
  EXPECT_FALSE(srms->failed());

  for (int i = 5; i < 10; ++i) ASSERT_TRUE(stream.value()->send(numbered(i)).ok());
  world.sim.run_until(sec(2));

  const std::vector<int> got = collect_ints(inbox);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i) << "at " << i;

  const PathManager::Stats& ps = world.node(1).path->stats();
  EXPECT_EQ(ps.failovers, 1u);
  EXPECT_EQ(ps.death_failovers, 1u);
  EXPECT_GE(ps.fabric_failures, 1u);
  EXPECT_EQ(world.st(1).stats().streams_rebound, 1u);
  EXPECT_GT(world.node(1).path->failover_latency().count(), 0u);
}

TEST(Path, ReliableStreamSurvivesSilentOutage) {
  // Acceptance property: network A silently stops delivering (the network
  // object itself stays "up" — no failure notification fires) while a
  // reliable stream is mid-flight. Probing must detect the dead path,
  // fail the stream over to network B, and replay the handoff buffer so
  // the receiver sees every message exactly once, in order.
  auto world = two_net_world(2);
  world.with_faults(fault::FaultPlan().outage(msec(800), sec(30)), 7);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);

  constexpr int kMessages = 200;  // one every 10 ms: the outage hits mid-stream
  rms::Rms* raw = stream.value().get();
  for (int i = 0; i < kMessages; ++i) {
    world.sim.at(msec(10) * (i + 1), [raw, i] { (void)raw->send(numbered(i)); });
  }
  world.sim.run_until(sec(6));

  const std::vector<int> got = collect_ints(inbox);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages))
      << "reliable stream lost or duplicated messages across the failover";
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(got[i], i) << "out of order at position " << i;
  }

  const PathManager::Stats& ps = world.node(1).path->stats();
  EXPECT_GE(ps.probe_timeouts, static_cast<std::uint64_t>(
                                   world.node(1).path->config().unhealthy_after));
  EXPECT_GE(ps.failovers, 1u);
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.media[1].fabric.get());
  EXPECT_GT(world.st(1).stats().handoff_replayed, 0u);
  // After the dust settles the stream keeps running on B with no losses.
  EXPECT_FALSE(srms->failed());
}

TEST(Path, DowngradeNotifiedWhenOnlyWeakerNetworkRemains) {
  // Network B is reachable but slower (30 ms propagation floor): after A
  // dies, renegotiation on B can only satisfy the acceptable set, not the
  // original actual parameters — the stream must survive, flagged as
  // downgraded, and the client callback must fire.
  auto slow_b = net::ethernet_traits("eth-b");
  slow_b.propagation_delay = msec(30);
  auto world = two_net_world(2, net::ethernet_traits("eth-a"), slow_b);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  rms::Request request = reliable_request();
  request.desired.delay.a = msec(5);  // A grants this; B's floor is above it
  auto stream = world.st(1).create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);
  const Time delay_on_a = srms->params().delay.a;

  int downgrades = 0;
  rms::Params old_seen, new_seen;
  srms->on_downgrade([&](const rms::Params& from, const rms::Params& to) {
    ++downgrades;
    old_seen = from;
    new_seen = to;
  });

  ASSERT_TRUE(stream.value()->send(numbered(0)).ok());
  world.sim.run_until(msec(300));
  world.network->set_down(true);
  world.sim.run_until(sec(1));
  ASSERT_TRUE(stream.value()->send(numbered(1)).ok());
  world.sim.run_until(sec(2));

  EXPECT_EQ(downgrades, 1);
  EXPECT_EQ(old_seen.delay.a, delay_on_a);
  EXPECT_GT(new_seen.delay.a, delay_on_a);
  EXPECT_EQ(world.st(1).stats().rebind_downgrades, 1u);
  const std::vector<int> got = collect_ints(inbox);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 1);
}

TEST(Path, FailoverFailureLeavesStreamFailedWhenNoAlternate) {
  // Only one network: channel death has nowhere to go, the observer
  // declines, and the stream fails exactly as it did pre-path-manager.
  auto world = dash::testing::st_world(2, net::ethernet_traits("only"), 1);
  PathManager pm(world.sim, world.st(1));
  pm.add_network(*world.fabric);

  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  Error seen;
  stream.value()->on_failure([&](const Error& e) { seen = e; });
  stream.value()->send(numbered(0));
  world.sim.run_until(msec(200));

  world.network->set_down(true);
  world.sim.run_until(sec(1));
  EXPECT_TRUE(stream.value()->failed());
  EXPECT_EQ(pm.stats().failovers, 0u);
  EXPECT_EQ(pm.stats().failover_failures, 1u);
}

// ------------------------------------------- establishment across a failover

// A second stream's create is still pending on network A (the handshake
// ran with the first stream, but the reply to this create is lost) when A
// fails: set down, or silent from 100 ms. The path manager moves the
// stream to B. The create in flight names A, and the peer would return
// its reply and the stream's fast acks there; only the rebind's create,
// naming B, may settle the stream, so it comes up on B and its fast acks
// return over B.
void pending_create_follows_the_rebind(bool silent) {
  auto world = two_net_world(2);
  fault::FaultPlan plan;
  if (silent) {
    plan.outage(msec(100), sec(30));
  } else {
    plan.iid_loss(1.0, {.start = msec(100), .end = sec(30)}, {.src = 2, .symmetric = false});
    world.sim.at(msec(300), [&world] { world.network->set_down(true); });
  }
  world.with_faults(plan, 7);
  rms::Port first_inbox, inbox;
  world.node(2).ports.bind(50, &first_inbox);
  world.node(2).ports.bind(51, &inbox);

  auto first = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(first.ok()) << first.error().message;
  world.sim.run_until(msec(150));
  ASSERT_TRUE(dynamic_cast<st::StRms*>(first.value().get())->established());

  auto stream = world.st(1).create(reliable_request(), {2, 51});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  ASSERT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);
  std::vector<std::uint64_t> acks;
  srms->on_fast_ack([&acks](std::uint64_t id) { acks.push_back(id); });
  ASSERT_TRUE(srms->send(numbered(0)).ok());
  world.sim.run_until(msec(250));
  ASSERT_FALSE(srms->established());

  // Past the last retry of the create sent at 150 ms.
  world.sim.run_until(msec(1500));
  ASSERT_FALSE(srms->failed());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(srms->send_acked(numbered(i), static_cast<std::uint64_t>(i)).ok());
  }
  world.sim.run_until(sec(2));

  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.media[1].fabric.get());
  EXPECT_TRUE(srms->established());
  EXPECT_FALSE(srms->failed());
  EXPECT_EQ(collect_ints(inbox), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Path, PendingCreateFollowsTheRebindWhenItsNetworkGoesDown) {
  pending_create_follows_the_rebind(false);
}

TEST(Path, PendingCreateFollowsTheRebindWhenItsNetworkGoesSilent) {
  pending_create_follows_the_rebind(true);
}

TEST(Path, TrustedNetworkDeathFailsOverThroughAHandshake) {
  // The handshake was elided on trusted network T. When T goes down the
  // stream fails over to untrusted U, where the peer accepts a create only
  // from a host that proved itself: the rebind's create must wait for a
  // handshake over U, and the stream comes up there and keeps delivering.
  auto trusted = net::ethernet_traits("eth-t");
  trusted.trusted = true;
  auto world = two_net_world(2, trusted, net::ethernet_traits("eth-u"));
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  ASSERT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(srms->send(numbered(i)).ok());
  world.sim.run_until(msec(500));
  EXPECT_EQ(world.st(1).stats().auth_elided, 1u);
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 0u);

  world.network->set_down(true);
  world.sim.run_until(sec(1));
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.media[1].fabric.get());
  EXPECT_TRUE(srms->established());
  EXPECT_FALSE(srms->failed());
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 1u);

  for (int i = 5; i < 10; ++i) ASSERT_TRUE(srms->send(numbered(i)).ok());
  world.sim.run_until(sec(2));
  EXPECT_EQ(collect_ints(inbox), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// ------------------------------------------------- outages that stay home

TEST(Path, ShortOutageLeavesStreamHomeAndLaterDeathMovesIt) {
  // The outage is short: one or two probes go unanswered, then the path
  // recovers before `unhealthy_after` timeouts condemn it. The stream must
  // stay on its original network, and a later hard death must still move
  // it to B with nothing lost.
  auto world = two_net_world(2);
  world.with_faults(fault::FaultPlan().outage(msec(800), msec(1150)), 7);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  auto stream = world.st(1).create(reliable_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  ASSERT_TRUE(stream.value()->send(numbered(0)).ok());

  world.sim.run_until(sec(2));

  const PathManager::Stats& ps = world.node(1).path->stats();
  EXPECT_EQ(ps.failovers, 0u);
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);
  EXPECT_FALSE(srms->failed());

  ASSERT_TRUE(stream.value()->send(numbered(1)).ok());
  world.sim.run_until(msec(2200));
  world.network->set_down(true);
  world.sim.run_until(sec(3));
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.media[1].fabric.get());
  EXPECT_FALSE(srms->failed());
  ASSERT_TRUE(stream.value()->send(numbered(2)).ok());
  world.sim.run_until(sec(4));

  const std::vector<int> got = collect_ints(inbox);
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], i);
}

TEST(Path, FailoverRefusedByAdmissionLeavesStreamHomeAndDelivering) {
  // The only alternate network cannot admit the stream's deterministic
  // reservation. The unhealthy verdict tries B, admission refuses, and the
  // stream must ride out the outage on its home network.
  auto thin_b = net::ethernet_traits("eth-b");
  thin_b.bits_per_second = 1'000'000;  // ~5 Mbps committed won't fit
  auto world = two_net_world(2, net::ethernet_traits("eth-a"), thin_b);
  world.with_faults(fault::FaultPlan().outage(msec(800), msec(1450)), 7);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);

  rms::Request request = reliable_request();
  request.desired.delay.type = rms::BoundType::kDeterministic;
  request.desired.delay.a = msec(50);
  request.acceptable = request.desired;  // no weaker fallback to offer B
  auto stream = world.st(1).create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<st::StRms*>(stream.value().get());
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);
  ASSERT_TRUE(stream.value()->send(numbered(0)).ok());

  world.sim.run_until(sec(3));

  const PathManager::Stats& ps = world.node(1).path->stats();
  EXPECT_EQ(ps.failovers, 0u);
  EXPECT_GE(ps.failover_failures, 1u);  // the unhealthy verdict tried and failed
  EXPECT_EQ(world.st(1).stream_fabric(srms->id()), world.fabric);
  EXPECT_FALSE(srms->failed());

  // After the outage heals the stream keeps delivering on A.
  ASSERT_TRUE(stream.value()->send(numbered(1)).ok());
  world.sim.run_until(sec(4));
  const std::vector<int> got = collect_ints(inbox);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 1);
}

}  // namespace
}  // namespace dash::path
