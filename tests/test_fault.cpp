// Tests for the scripted fault-injection subsystem (src/fault) and the
// hardening it forced into the layers above:
//   * the injector is deterministic: same plan + seed + workload give
//     bit-identical Network::Stats and impairment counters,
//   * time windows script link down/up and partitions that heal,
//   * ST establishment rides out a partition that heals within its control
//     retry budget, and fails cleanly when it does not,
//   * duplicated packets are suppressed by demux sequencing (exactly-once
//     client delivery),
//   * corruption is caught by software checksums where negotiated,
//   * RKOM calls give up after a bounded number of retries and the channel
//     is re-established once the network heals.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "rkom/rkom.h"
#include "test_helpers.h"
#include "util/serialize.h"

namespace dash {
namespace {

using testing::st_world;

rms::Message text_message(const char* text) {
  rms::Message m;
  m.data = to_bytes(text);
  return m;
}

// ---------------------------------------------------------------- windows

TEST(FaultWindows, LinkDownBlocksOnlyInsideTheWindow) {
  auto world = st_world(2);
  auto& faults = world.with_faults(
      fault::FaultPlan{}.link_down(2, msec(10), msec(20)));

  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto stream = world.fabric->create(1, testing::loose_request(), {2, 10});
  ASSERT_TRUE(stream.ok());

  for (Time t : {msec(5), msec(15), msec(25)}) {
    world.sim.at(t, [&] { (void)stream.value()->send(text_message("tick")); });
  }
  world.sim.run();

  EXPECT_EQ(port.delivered(), 2u);  // the msec(15) send vanished
  EXPECT_EQ(faults.counters().blocked_link, 1u);
  EXPECT_EQ(world.network->stats().fault_partitioned, 1u);
  EXPECT_EQ(world.network->stats().fault_dropped, 0u);
}

TEST(FaultWindows, PartitionBlocksBothDirectionsUntilHeal) {
  auto world = st_world(3);
  auto& faults = world.with_faults(
      fault::FaultPlan{}.partition({1}, {2}, msec(0), msec(50)));

  rms::Port on2, on3;
  world.node(2).ports.bind(10, &on2);
  world.node(3).ports.bind(10, &on3);
  auto to2 = world.fabric->create(1, testing::loose_request(), {2, 10});
  auto to3 = world.fabric->create(1, testing::loose_request(), {3, 10});
  ASSERT_TRUE(to2.ok());
  ASSERT_TRUE(to3.ok());

  // During the partition: 1→2 blocked, 1→3 unaffected (3 is outside it).
  world.sim.at(msec(10), [&] {
    (void)to2.value()->send(text_message("cut"));
    (void)to3.value()->send(text_message("fine"));
  });
  // After the heal everything flows again.
  world.sim.at(msec(60), [&] { (void)to2.value()->send(text_message("healed")); });
  world.sim.run();

  EXPECT_EQ(on2.delivered(), 1u);
  EXPECT_EQ(on3.delivered(), 1u);
  EXPECT_EQ(faults.counters().blocked_partition, 1u);
}

// ------------------------------------------------------------ determinism

struct ChaosResult {
  net::Network::Stats net;
  fault::FaultInjector::Counters counters;
  std::vector<int> received;
};

// A best-effort ST stream under a plan exercising every impairment class.
ChaosResult run_chaos(std::uint64_t fault_seed) {
  auto world = st_world(2);
  fault::FaultPlan plan;
  plan.iid_loss(0.08)
      .burst_loss(0.05, 0.3, 0.9)
      .reorder(0.2, usec(100), msec(2))
      .duplicate(0.2)
      .corrupt(0.05);
  auto& faults = world.with_faults(std::move(plan), fault_seed);

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  ChaosResult result;
  port.set_handler([&result](rms::Message m) {
    Reader r(m.data);
    result.received.push_back(static_cast<int>(r.u64().value_or(~0ull)));
  });
  auto stream = world.st(1).create(testing::loose_request(), {2, 50});
  EXPECT_TRUE(stream.ok());

  for (int i = 0; i < 150; ++i) {
    world.sim.at(msec(2) * (i + 1), [&stream, i] {
      Bytes data;
      Writer w(data);
      w.u64(static_cast<std::uint64_t>(i));
      rms::Message m;
      m.data = std::move(data);
      (void)stream.value()->send(std::move(m));
    });
  }
  world.sim.run();
  result.net = world.network->stats();
  result.counters = faults.counters();
  return result;
}

TEST(FaultDeterminism, SameSeedSamePlanSameWorkloadIsBitIdentical) {
  const ChaosResult a = run_chaos(7);
  const ChaosResult b = run_chaos(7);
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.received, b.received);

  // The plan had teeth: every impairment class fired.
  EXPECT_GT(a.counters.dropped_iid, 0u);
  EXPECT_GT(a.counters.dropped_burst, 0u);
  EXPECT_GT(a.counters.reordered, 0u);
  EXPECT_GT(a.counters.duplicated, 0u);
  EXPECT_GT(a.counters.corrupted, 0u);

  // A different seed scripts different impairments.
  const ChaosResult c = run_chaos(8);
  EXPECT_NE(a.counters, c.counters);
}

TEST(FaultDeterminism, TraceRecordsImpairmentCategories) {
  auto world = st_world(2);
  auto& faults = world.with_faults(fault::FaultPlan{}.iid_loss(0.3).duplicate(0.3));
  sim::Trace trace;
  faults.set_trace(&trace);

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 60; ++i) {
    world.sim.at(msec(i + 1), [&stream] {
      (void)stream.value()->send(text_message("payload"));
    });
  }
  world.sim.run();

  EXPECT_EQ(trace.count("fault.loss"), faults.counters().dropped_iid);
  EXPECT_EQ(trace.count("fault.dup"), faults.counters().duplicated);
}

// ------------------------------------------------------------- burst loss

TEST(FaultLoss, GilbertElliottBurstsDropRunsOfPackets) {
  auto world = st_world(2);
  auto& faults = world.with_faults(
      fault::FaultPlan{}.burst_loss(0.1, 0.3, 1.0), /*seed=*/11);

  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto stream = world.fabric->create(1, testing::loose_request(), {2, 10});
  ASSERT_TRUE(stream.ok());
  constexpr int kSent = 300;
  for (int i = 0; i < kSent; ++i) {
    world.sim.at(msec(i + 1), [&stream] {
      (void)stream.value()->send(text_message("burst victim"));
    });
  }
  world.sim.run();

  EXPECT_GT(faults.counters().dropped_burst, 0u);
  EXPECT_EQ(faults.counters().dropped_iid, 0u);  // good state is loss-free
  EXPECT_LT(port.delivered(), static_cast<std::uint64_t>(kSent));
  EXPECT_GT(port.delivered(), 0u);
  EXPECT_EQ(world.network->stats().fault_dropped, faults.counters().dropped_burst);
}

// ---------------------------------------------------- duplication at the ST

TEST(FaultDuplication, DemuxSequencingDeliversExactlyOnce) {
  auto world = st_world(2);
  world.with_faults(fault::FaultPlan{}.duplicate(1.0, 1, usec(80)));

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  std::vector<int> received;
  port.set_handler([&received](rms::Message m) {
    Reader r(m.data);
    received.push_back(static_cast<int>(r.u64().value_or(~0ull)));
  });
  auto stream = world.st(1).create(testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());

  constexpr int kSent = 20;
  for (int i = 0; i < kSent; ++i) {
    world.sim.at(msec(2) * (i + 1), [&stream, i] {
      Bytes data;
      Writer w(data);
      w.u64(static_cast<std::uint64_t>(i));
      rms::Message m;
      m.data = std::move(data);
      ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();

  // Exactly once, in order, despite every packet crossing the wire twice.
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kSent));
  for (int i = 0; i < kSent; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  EXPECT_GT(world.network->stats().fault_duplicated, 0u);
  EXPECT_GT(world.st(2).stats().stale_dropped, 0u);  // the copies died here
}

// ----------------------------------------------------- corruption + checksum

TEST(FaultCorruption, SoftwareChecksumCatchesFlippedBits) {
  // A slightly lossy medium so negotiation selects software checksumming
  // (a clean medium elides it, §2.5).
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 1e-9;
  auto world = st_world(2, traits);
  auto& faults = world.with_faults(fault::FaultPlan{}.corrupt(0.5));

  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto request = testing::loose_request(8192, 512, 1.0);
  request.desired.bit_error_rate = 1e-12;  // want integrity, tolerate less
  auto stream = world.fabric->create(1, request, {2, 10});
  ASSERT_TRUE(stream.ok());

  const Bytes payload = patterned_bytes(200, 99);
  constexpr int kSent = 60;
  for (int i = 0; i < kSent; ++i) {
    world.sim.at(msec(i + 1), [&stream, &payload] {
      rms::Message m;
      m.data = payload;
      (void)stream.value()->send(std::move(m));
    });
  }
  std::uint64_t intact = 0;
  port.set_handler([&](rms::Message m) {
    if (m.data == payload) ++intact;
  });
  world.sim.run();

  EXPECT_GT(faults.counters().corrupted, 0u);
  EXPECT_GT(world.fabric->stats().checksum_drops, 0u);
  // Every message that did get through was byte-exact: corruption became
  // loss, never damage.
  EXPECT_EQ(intact, world.fabric->stats().messages_delivered);
  EXPECT_EQ(world.fabric->stats().corrupt_delivered, 0u);
}

// --------------------------------------------------- ST partition recovery

TEST(FaultPartition, StEstablishmentRidesOutAHealingPartition) {
  auto world = st_world(2);
  world.with_faults(fault::FaultPlan{}.partition({1}, {2}, 0, msec(600)));

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->send(text_message("queued across the cut")).ok());

  world.sim.run_until(sec(5));

  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_FALSE(stream.value()->failed());
  EXPECT_GT(world.network->stats().fault_partitioned, 0u);
}

TEST(FaultPartition, StGivesUpCleanlyWhenThePartitionNeverHeals) {
  auto world = st_world(2);
  world.with_faults(fault::FaultPlan{}.partition({1}, {2}, 0, kTimeNever));

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  bool failed = false;
  stream.value()->on_failure([&](const Error& e) {
    failed = true;
    EXPECT_EQ(e.code, Errc::kRmsFailed);
  });
  ASSERT_TRUE(stream.value()->send(text_message("never arrives")).ok());

  world.sim.run_until(sec(10));

  EXPECT_TRUE(failed);
  EXPECT_TRUE(stream.value()->failed());
  EXPECT_EQ(port.delivered(), 0u);
}

// ------------------------------------------------- peer-restart invalidation

TEST(FaultRestart, InvalidatePeerDropsCachedChannelsAndReauthenticates) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  {
    auto stream = world.st(1).create(testing::loose_request(), {2, 50});
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream.value()->send(text_message("first conversation")).ok());
    world.sim.run();
    stream.value()->close();
  }
  // Bounded run: long enough for the release, short of the idle expiry.
  world.sim.run_for(msec(100));
  ASSERT_EQ(world.st(1).cached_channels(), 1u);
  const auto handshakes_before = world.st(1).stats().auth_handshakes;

  // Host 2 "restarts": its ST forgets us, ours forgets it.
  world.st(1).invalidate_peer(2);
  world.st(2).invalidate_peer(1);
  EXPECT_EQ(world.st(1).cached_channels(), 0u);
  EXPECT_GT(world.st(1).stats().cache_invalidations, 0u);

  // The next conversation builds fresh state and re-authenticates.
  auto stream = world.st(1).create(testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->send(text_message("after the restart")).ok());
  world.sim.run();
  EXPECT_EQ(port.delivered(), 2u);
  EXPECT_EQ(world.st(1).stats().cache_hits, 0u);
  EXPECT_GT(world.st(1).stats().auth_handshakes, handshakes_before);
}

// -------------------------------------------------- reassembly accounting

TEST(FaultReassembly, DiscardedPartialsAreAccounted) {
  // Lose exactly the traffic window that carries fragments of the first
  // large message; the next message then obsoletes the partial (§4.3).
  auto world = st_world(2);
  // Establishment (t < 5ms) stays clean; the loss window covers the data
  // phase only, so fragments (not the control handshake) take the hits.
  world.with_faults(
      fault::FaultPlan{}.iid_loss(0.7, {msec(5), msec(40)}), /*seed=*/3);
  sim::Trace trace;
  world.st(2).set_trace(&trace);

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(testing::loose_request(64 * 1024, 16 * 1024),
                                   {2, 50});
  ASSERT_TRUE(stream.ok());
  world.sim.run_until(msec(5));

  // Several fragmenting messages inside the loss window, then clean ones.
  for (int i = 0; i < 8; ++i) {
    world.sim.at(msec(3 * i + 6), [&stream, i] {
      rms::Message m;
      m.data = patterned_bytes(6000, static_cast<std::uint64_t>(i));
      (void)stream.value()->send(std::move(m));
    });
  }
  world.sim.run();

  const auto& stats = world.st(2).stats();
  ASSERT_GT(stats.partials_discarded, 0u);
  EXPECT_GT(stats.partial_fragments_discarded, 0u);
  EXPECT_GT(stats.partial_bytes_discarded, 0u);
  EXPECT_EQ(trace.count("st.discard"), stats.partials_discarded);
}

// ------------------------------------------------------ RKOM bounded retry

TEST(FaultRkom, CallGivesUpAfterBoundedRetriesThenChannelReestablishes) {
  rkom::RkomConfig config;
  config.retry_timeout = msec(50);
  config.max_retries = 3;
  auto world = st_world(2);
  world.with_faults(fault::FaultPlan{}.partition({1}, {2}, 0, sec(3)));
  rkom::RkomNode client(world.st(1), world.node(1).ports, config);
  rkom::RkomNode server(world.st(2), world.node(2).ports, config);
  server.register_operation(1, {[](BytesView in) { return Bytes(in.begin(), in.end()); }, 0});

  // First call: the partition eats everything; the call must give up after
  // max_retries rather than retrying forever.
  bool first_failed = false;
  world.sim.at(msec(1), [&] {
    client.call(2, 1, to_bytes("into the void"), [&](Result<Bytes> r) {
      first_failed = !r.ok();
    });
  });
  world.sim.run_until(sec(1));
  EXPECT_TRUE(first_failed);
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.stats().request_retransmissions, 3u);

  // The ST streams under the channel fail once their control retries are
  // exhausted; after the heal, the next call rebuilds the channel.
  std::string reply;
  world.sim.at(sec(4), [&] {
    client.call(2, 1, to_bytes("after the heal"), [&](Result<Bytes> r) {
      ASSERT_TRUE(r.ok()) << r.error().message;
      reply = to_string(r.value());
    });
  });
  world.sim.run_until(sec(8));

  EXPECT_EQ(reply, "after the heal");
  EXPECT_EQ(client.stats().channels_reestablished, 1u);
  EXPECT_EQ(client.channels(), 1u);
}

}  // namespace
}  // namespace dash
