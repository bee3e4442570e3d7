// Property-based suites: randomized sweeps over seeds and parameters,
// asserting the invariants the architecture promises —
//   * per-stream in-order delivery through every layer (§2 property 2),
//   * byte-exact fragmentation round trips (§4.3),
//   * the §2.4 compatibility relation is a partial order,
//   * negotiation always returns parameters compatible with the
//     acceptable set,
//   * capacity enforcers never exceed C under random send/ack patterns,
//   * reliable streams deliver byte-exact payloads across random loss.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "test_helpers.h"
#include "transport/enforcer.h"
#include "transport/stream.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace dash {
namespace {

using testing::st_world;

// ---------------------------------------------------------------------
// P1: per-stream ordering through the whole stack, randomized.
//
// Several ST RMS with randomly mixed message sizes (some fragmenting),
// random pacing, piggybacking on: every stream's messages must arrive in
// send order, whatever interleaving the CPU, piggyback queues, and
// interface queues produce.
class OrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingProperty, PerStreamOrderSurvivesTheStack) {
  const std::uint64_t seed = GetParam();
  auto world = st_world(2, net::ethernet_traits(), seed);
  Rng rng(seed * 7919 + 1);

  constexpr int kStreams = 4;
  constexpr int kMessages = 60;

  struct Stream {
    std::unique_ptr<rms::Rms> rms;
    std::unique_ptr<rms::Port> port;
    std::vector<int> received;
  };
  std::vector<Stream> streams(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.port = std::make_unique<rms::Port>();
    world.node(2).ports.bind(100 + static_cast<rms::PortId>(i), s.port.get());
    auto request = dash::testing::loose_request(64 * 1024, 8 * 1024);
    // Random delay bounds so streams have different urgencies.
    request.desired.delay.a = msec(rng.range(5, 200));
    auto created = world.st(1).create(request, {2, 100 + static_cast<rms::PortId>(i)});
    ASSERT_TRUE(created.ok());
    s.rms = std::move(created).value();
    s.port->set_handler([&s](rms::Message m) {
      // First 4 bytes of the payload carry the per-stream sequence number.
      int seq = 0;
      for (int b = 0; b < 4; ++b) {
        seq |= static_cast<int>(static_cast<std::uint8_t>(m.data[static_cast<std::size_t>(b)]))
               << (8 * b);
      }
      s.received.push_back(seq);
    });
  }

  // Random interleaved sends: random stream, random size (some above the
  // frame limit so they fragment), random gaps. Mean offered load stays
  // under the 10 Mb/s link so a clean network loses nothing (the clients
  // are responsible for staying within capacity, §4.4).
  Time t = 0;
  std::vector<int> next_seq(kStreams, 0);
  for (int n = 0; n < kStreams * kMessages; ++n) {
    const int idx = static_cast<int>(rng.below(kStreams));
    const std::size_t size = 4 + static_cast<std::size_t>(rng.range(0, 4000));
    const int seq = next_seq[static_cast<std::size_t>(idx)]++;
    t += usec(rng.range(1500, 4500));
    world.sim.at(t, [&streams, idx, size, seq] {
      Bytes data = patterned_bytes(size, static_cast<std::uint64_t>(seq));
      for (int b = 0; b < 4; ++b) {
        data[static_cast<std::size_t>(b)] = static_cast<std::byte>(seq >> (8 * b));
      }
      rms::Message m;
      m.data = std::move(data);
      ASSERT_TRUE(streams[static_cast<std::size_t>(idx)].rms->send(std::move(m)).ok());
    });
  }
  world.sim.run();

  for (int i = 0; i < kStreams; ++i) {
    const auto& got = streams[static_cast<std::size_t>(i)].received;
    const auto sent = static_cast<std::size_t>(next_seq[static_cast<std::size_t>(i)]);
    ASSERT_EQ(got.size(), sent)
        << "stream " << i << " lost messages on a clean network";
    for (std::size_t n = 0; n < sent; ++n) {
      ASSERT_EQ(got[n], static_cast<int>(n))
          << "stream " << i << " reordered at position " << n << " (seed " << seed
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------
// P1-fault: the same stack under an adversarial medium — random loss,
// bursts, reordering, duplication. Best-effort streams may lose messages,
// but each stream's deliveries must be a strictly increasing, duplicate-
// free subsequence of what was sent (the §2 ordering property degrades to
// loss, never to disorder or replay).
class OrderingFaultProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingFaultProperty, OrderSurvivesLossReorderingAndDuplication) {
  const std::uint64_t seed = GetParam();
  auto world = st_world(2, net::ethernet_traits(), seed);
  world.with_faults(fault::FaultPlan{}
                        .iid_loss(0.03)
                        .burst_loss(0.02, 0.3, 0.9)
                        .reorder(0.2, usec(100), msec(2))
                        .duplicate(0.15),
                    seed * 31 + 5);
  Rng rng(seed * 7919 + 1);

  constexpr int kStreams = 4;
  constexpr int kMessages = 60;

  struct Stream {
    std::unique_ptr<rms::Rms> rms;
    std::unique_ptr<rms::Port> port;
    std::vector<int> received;
  };
  std::vector<Stream> streams(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto& s = streams[static_cast<std::size_t>(i)];
    s.port = std::make_unique<rms::Port>();
    world.node(2).ports.bind(100 + static_cast<rms::PortId>(i), s.port.get());
    auto created = world.st(1).create(dash::testing::loose_request(64 * 1024, 8 * 1024),
                                      {2, 100 + static_cast<rms::PortId>(i)});
    ASSERT_TRUE(created.ok());
    s.rms = std::move(created).value();
    s.port->set_handler([&s](rms::Message m) {
      int seq = 0;
      for (int b = 0; b < 4; ++b) {
        seq |= static_cast<int>(static_cast<std::uint8_t>(m.data[static_cast<std::size_t>(b)]))
               << (8 * b);
      }
      s.received.push_back(seq);
    });
  }

  Time t = 0;
  std::vector<int> next_seq(kStreams, 0);
  for (int n = 0; n < kStreams * kMessages; ++n) {
    const int idx = static_cast<int>(rng.below(kStreams));
    const std::size_t size = 4 + static_cast<std::size_t>(rng.range(0, 4000));
    const int seq = next_seq[static_cast<std::size_t>(idx)]++;
    t += usec(rng.range(1500, 4500));
    world.sim.at(t, [&streams, idx, size, seq] {
      Bytes data = patterned_bytes(size, static_cast<std::uint64_t>(seq));
      for (int b = 0; b < 4; ++b) {
        data[static_cast<std::size_t>(b)] = static_cast<std::byte>(seq >> (8 * b));
      }
      rms::Message m;
      m.data = std::move(data);
      (void)streams[static_cast<std::size_t>(idx)].rms->send(std::move(m));
    });
  }
  world.sim.run();

  for (int i = 0; i < kStreams; ++i) {
    const auto& got = streams[static_cast<std::size_t>(i)].received;
    const int sent = next_seq[static_cast<std::size_t>(i)];
    // Loss is allowed, silence is not: most traffic still arrives.
    ASSERT_GT(static_cast<int>(got.size()), sent / 4)
        << "stream " << i << " lost almost everything (seed " << seed << ")";
    for (std::size_t n = 0; n < got.size(); ++n) {
      ASSERT_LT(got[n], sent);
      if (n > 0) {
        ASSERT_GT(got[n], got[n - 1])
            << "stream " << i << " disordered or duplicated at position " << n
            << " (seed " << seed << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingFaultProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------
// P2: fragmentation round trip is byte-exact for a sweep of sizes around
// every boundary (frame limit, multiples, off-by-ones).
class FragmentationProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FragmentationProperty, RoundTripsExactly) {
  const std::size_t size = GetParam();
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream =
      world.st(1).create(dash::testing::loose_request(128 * 1024, 64 * 1024), {2, 50});
  ASSERT_TRUE(stream.ok());

  const Bytes payload = patterned_bytes(size, size * 31 + 7);
  rms::Message m;
  m.data = payload;
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u) << "size " << size;
  EXPECT_EQ(port.poll()->data, payload) << "size " << size;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FragmentationProperty,
    ::testing::Values(1u, 2u, 63u, 64u, 1000u, 1326u, 1327u, 1328u, 1400u, 1500u,
                      2653u, 2654u, 2655u, 4096u, 10'000u, 16'384u, 40'000u,
                      65'536u));

// ---------------------------------------------------------------------
// P2-fault: fragmentation round trips under duplication and reordering
// (no loss). Every fragment eventually arrives, so reassembly must
// complete exactly once and byte-exact, whatever order or multiplicity
// the medium produces (§4.3 never delivers a composite twice).
class FragmentationFaultProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(FragmentationFaultProperty, ExactlyOnceUnderDuplicationAndReordering) {
  const auto [size, seed] = GetParam();
  auto world = st_world(2);
  world.with_faults(
      fault::FaultPlan{}.duplicate(0.5, 2, usec(60)).reorder(0.4, usec(100), msec(3)),
      seed);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream =
      world.st(1).create(dash::testing::loose_request(128 * 1024, 64 * 1024), {2, 50});
  ASSERT_TRUE(stream.ok());

  const Bytes payload = patterned_bytes(size, size * 31 + 7);
  rms::Message m;
  m.data = payload;
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u) << "size " << size << " seed " << seed;
  EXPECT_EQ(port.poll()->data, payload) << "size " << size << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, FragmentationFaultProperty,
    ::testing::Combine(::testing::Values(64u, 1327u, 2655u, 10'000u, 40'000u),
                       ::testing::Values(2u, 9u)));

// ---------------------------------------------------------------------
// P3: the §2.4 compatibility relation behaves as a partial order over
// randomly generated parameter sets: reflexive, antisymmetric on distinct
// points, transitive.
TEST(CompatibilityProperty, PartialOrderOverRandomParams) {
  Rng rng(424242);
  auto random_params = [&rng] {
    rms::Params p;
    p.quality.reliable = rng.chance(0.5);
    p.quality.authenticated = rng.chance(0.5);
    p.quality.privacy = rng.chance(0.5);
    p.max_message_size = static_cast<std::uint64_t>(rng.range(1, 4096));
    p.capacity = p.max_message_size + static_cast<std::uint64_t>(rng.range(0, 65536));
    p.delay.type = static_cast<rms::BoundType>(rng.below(3));
    p.delay.a = msec(rng.range(1, 1000));
    p.delay.b_per_byte = rng.range(0, 10'000);
    p.bit_error_rate = rng.uniform();
    p.statistical.average_load_bps = rng.uniform() * 1e6;
    p.statistical.burstiness = 1.0 + rng.uniform() * 9.0;
    p.statistical.delay_probability = rng.uniform();
    return p;
  };

  std::vector<rms::Params> pool;
  for (int i = 0; i < 60; ++i) pool.push_back(random_params());

  for (const auto& p : pool) {
    EXPECT_TRUE(rms::compatible(p, p));  // reflexive
  }
  int related = 0;
  for (const auto& a : pool) {
    for (const auto& b : pool) {
      const bool ab = rms::compatible(a, b);
      const bool ba = rms::compatible(b, a);
      if (ab && ba && !(a == b)) {
        // Antisymmetry holds up to fields outside the order (statistical
        // workload descriptions of non-statistical bounds). The ordered
        // fields must then agree.
        EXPECT_TRUE(rms::includes(a.quality, b.quality) &&
                    rms::includes(b.quality, a.quality));
        EXPECT_EQ(a.capacity, b.capacity);
        EXPECT_EQ(a.max_message_size, b.max_message_size);
        EXPECT_EQ(a.delay.a, b.delay.a);
      }
      if (ab) ++related;
      for (const auto& c : pool) {
        if (ab && rms::compatible(b, c)) {
          EXPECT_TRUE(rms::compatible(a, c));  // transitive
        }
      }
    }
  }
  EXPECT_GT(related, 60);  // the pool is not an antichain; the test has teeth
}

// ---------------------------------------------------------------------
// P4: for random requests the network provider either rejects or returns
// actual parameters compatible with the acceptable set (§2.4), and the
// ST's own negotiation preserves the same contract one layer up.
TEST(NegotiationProperty, ActualAlwaysCompatibleWithAcceptable) {
  Rng rng(777);
  auto world = st_world(2);
  int granted = 0;
  for (int i = 0; i < 200; ++i) {
    rms::Params desired;
    desired.quality.privacy = rng.chance(0.3);
    desired.quality.authenticated = rng.chance(0.3);
    desired.max_message_size = static_cast<std::uint64_t>(rng.range(16, 8192));
    desired.capacity =
        desired.max_message_size + static_cast<std::uint64_t>(rng.range(0, 32768));
    desired.delay.type =
        rng.chance(0.5) ? rms::BoundType::kBestEffort : rms::BoundType::kStatistical;
    desired.delay.a = msec(rng.range(2, 500));
    desired.delay.b_per_byte = usec(rng.range(1, 50));
    desired.bit_error_rate = 1e-9;
    desired.statistical.average_load_bps = 1000.0 * static_cast<double>(rng.range(1, 500));
    desired.statistical.burstiness = 1.0 + rng.uniform() * 4.0;
    desired.statistical.delay_probability = 0.5 + rng.uniform() * 0.5;

    rms::Params acceptable = desired;
    acceptable.capacity = desired.max_message_size;
    acceptable.max_message_size = std::min<std::uint64_t>(desired.max_message_size, 64);
    acceptable.delay.a = desired.delay.a * rng.range(2, 20);
    acceptable.delay.b_per_byte = msec(1);
    acceptable.bit_error_rate = 1.0;
    acceptable.statistical.delay_probability = 0.5;
    acceptable.quality.privacy = false;  // optional upgrades only
    acceptable.quality.authenticated = false;

    const rms::Request request{desired, acceptable};
    auto stream = world.st(1).create(request, {2, 50});
    if (!stream.ok()) continue;
    ++granted;
    EXPECT_TRUE(rms::compatible(stream.value()->params(), acceptable))
        << "iteration " << i << ": actual " << rms::to_string(stream.value()->params());
    stream.value()->close();
  }
  EXPECT_GT(granted, 150);  // most sane requests succeed
}

// ---------------------------------------------------------------------
// P5: the rate-based enforcer never lets more than C bytes into any
// window of length A + C·B, for random send patterns.
class RateEnforcerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RateEnforcerProperty, WindowInvariantUnderRandomTraffic) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::Simulator sim;
  rms::Params params;
  params.capacity = 4096;
  params.max_message_size = 1024;
  params.delay.a = msec(rng.range(1, 50));
  params.delay.b_per_byte = rng.range(0, 2000);
  transport::RateBasedEnforcer enforcer(sim, params);
  const Time period = enforcer.period();

  std::vector<std::pair<Time, std::size_t>> sends;
  for (int i = 0; i < 2000; ++i) {
    sim.run_for(usec(rng.range(1, 2000)));
    const auto size = static_cast<std::size_t>(rng.range(1, 1024));
    if (enforcer.can_send(size)) {
      enforcer.note_sent(size);
      sends.emplace_back(sim.now(), size);
    }
  }

  // Verify the invariant over every send-aligned window.
  for (std::size_t i = 0; i < sends.size(); ++i) {
    std::uint64_t in_window = 0;
    for (std::size_t j = i; j < sends.size(); ++j) {
      if (sends[j].first - sends[i].first > period) break;
      in_window += sends[j].second;
    }
    ASSERT_LE(in_window, params.capacity)
        << "window starting at send " << i << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RateEnforcerProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------
// P6: the ack-based enforcer's outstanding count is exact under random
// interleavings of sends and (possibly duplicated) acks.
TEST(AckEnforcerProperty, OutstandingNeverExceedsCapacity) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t capacity = static_cast<std::uint64_t>(rng.range(1000, 100000));
    transport::AckBasedEnforcer enforcer(capacity);
    std::uint64_t model_outstanding = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto n = static_cast<std::size_t>(rng.range(1, 2000));
      if (rng.chance(0.6)) {
        if (enforcer.can_send(n)) {
          enforcer.note_sent(n);
          model_outstanding += n;
        } else {
          EXPECT_GT(model_outstanding + n, capacity);
        }
      } else {
        const auto acked = std::min<std::uint64_t>(
            model_outstanding, static_cast<std::uint64_t>(rng.range(0, 3000)));
        enforcer.note_acked(acked);
        model_outstanding -= acked;
      }
      ASSERT_EQ(enforcer.outstanding(), model_outstanding);
      ASSERT_LE(enforcer.outstanding(), capacity);
    }
  }
}

// ---------------------------------------------------------------------
// P7: reliable streams deliver byte-exact data across randomized loss
// rates and chunk sizes.
class ReliabilityProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ReliabilityProperty, ByteExactAcrossLoss) {
  const auto [seed, ber] = GetParam();
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = ber;
  auto world = st_world(2, traits, seed);
  transport::StreamConfig cfg;
  cfg.retransmit_timeout = msec(120);
  transport::StreamReceiver rx(world.st(2), world.node(2).ports, 60, cfg);
  Bytes received;
  rx.on_data([&](Bytes b) { append(received, b); });
  transport::StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, cfg);
  ASSERT_TRUE(tx.ok());

  const Bytes payload = patterned_bytes(30'000, seed);
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
  world.sim.run_until(sec(60));
  EXPECT_EQ(received, payload) << "seed " << seed << " ber " << ber;
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, ReliabilityProperty,
    ::testing::Combine(::testing::Values(3u, 17u, 29u),
                       ::testing::Values(0.0, 2e-6, 1e-5)));

// ---------------------------------------------------------------------
// P7-fault: reliable streams stay byte-exact under every scripted
// impairment class — burst loss, reordering + duplication, and a
// partition that heals before the retransmission budget is exhausted.
enum class FaultKind { kBurstLoss, kReorderDup, kHealingPartition };

fault::FaultPlan plan_for(FaultKind kind) {
  fault::FaultPlan plan;
  switch (kind) {
    case FaultKind::kBurstLoss:
      plan.burst_loss(0.05, 0.25, 0.9);
      break;
    case FaultKind::kReorderDup:
      plan.reorder(0.3, usec(100), msec(4)).duplicate(0.3);
      break;
    case FaultKind::kHealingPartition:
      plan.partition({1}, {2}, msec(200), msec(700));
      break;
  }
  return plan;
}

class ReliabilityFaultProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, FaultKind>> {};

TEST_P(ReliabilityFaultProperty, ByteExactUnderScriptedImpairments) {
  const auto [seed, kind] = GetParam();
  auto world = st_world(2, net::ethernet_traits(), seed);
  world.with_faults(plan_for(kind), seed * 17 + 3);
  transport::StreamConfig cfg;
  cfg.retransmit_timeout = msec(120);
  transport::StreamReceiver rx(world.st(2), world.node(2).ports, 60, cfg);
  Bytes received;
  rx.on_data([&](Bytes b) { append(received, b); });
  transport::StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, cfg);
  ASSERT_TRUE(tx.ok());

  const Bytes payload = patterned_bytes(20'000, seed);
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
  world.sim.run_until(sec(60));
  EXPECT_EQ(received, payload)
      << "seed " << seed << " fault kind " << static_cast<int>(kind);
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, ReliabilityFaultProperty,
    ::testing::Combine(::testing::Values(3u, 17u, 29u),
                       ::testing::Values(FaultKind::kBurstLoss,
                                         FaultKind::kReorderDup,
                                         FaultKind::kHealingPartition)));

// ---------------------------------------------------------------------
// P8: serialization round-trips random structures and never reads past
// truncated input.
TEST(SerializeProperty, RoundTripAndTruncationSafety) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes buf;
    Writer w(buf);
    std::vector<std::uint64_t> values;
    const int fields = static_cast<int>(rng.range(1, 20));
    for (int i = 0; i < fields; ++i) {
      const std::uint64_t v = rng.next();
      values.push_back(v);
      w.u64(v);
    }
    const Bytes blob = patterned_bytes(static_cast<std::size_t>(rng.range(0, 64)), 5);
    w.sized_bytes(blob);

    Reader r(buf);
    for (std::uint64_t v : values) ASSERT_EQ(r.u64().value(), v);
    ASSERT_EQ(r.sized_bytes().value(), blob);
    ASSERT_TRUE(r.done());

    // Truncate at a random point: every read returns nullopt or a value,
    // never UB; remaining() never underflows.
    Bytes cut(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(rng.below(buf.size() + 1)));
    Reader rc(cut);
    while (true) {
      const std::size_t before = rc.remaining();
      auto v = rc.u64();
      if (!v.has_value()) break;
      ASSERT_EQ(rc.remaining() + 8, before);
    }
  }
}

}  // namespace
}  // namespace dash
