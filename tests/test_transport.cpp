// Tests for the transport module (paper §4.4, Figure 5): the
// flow-controlled IPC port, the capacity-enforcement mechanisms, the RTO
// estimator, and the stream protocol's reliability / receiver-flow-control
// compositions.
#include <gtest/gtest.h>

#include "telemetry/ledger.h"
#include "transport/enforcer.h"
#include "transport/ipc_port.h"
#include "transport/rtt.h"
#include "transport/stream.h"
#include "test_helpers.h"

namespace dash::transport {
namespace {

using dash::testing::st_world;

// ----------------------------------------------------------------- IpcPort

TEST(IpcPort, EnforcesQueueLimit) {
  IpcPort port(100);
  EXPECT_TRUE(port.write(patterned_bytes(60)).ok());
  EXPECT_TRUE(port.write(patterned_bytes(40)).ok());
  const auto blocked = port.write(patterned_bytes(1));
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error().code, Errc::kWouldBlock);
  EXPECT_EQ(port.blocked_count(), 1u);
}

TEST(IpcPort, ReadFreesSpaceAndWakesWriter) {
  IpcPort port(100);
  int wakeups = 0;
  port.on_writable([&] { ++wakeups; });
  ASSERT_TRUE(port.write(patterned_bytes(100)).ok());
  EXPECT_FALSE(port.write(patterned_bytes(10)).ok());
  const Bytes out = port.read(30);
  EXPECT_EQ(out.size(), 30u);
  EXPECT_EQ(wakeups, 1);
  EXPECT_TRUE(port.write(patterned_bytes(10)).ok());
}

TEST(IpcPort, ReadSpansMessageBoundaries) {
  IpcPort port(1000);
  port.write(to_bytes("abc"));
  port.write(to_bytes("defgh"));
  EXPECT_EQ(to_string(port.read(5)), "abcde");
  EXPECT_EQ(to_string(port.read(100)), "fgh");
  EXPECT_TRUE(port.empty());
}

TEST(IpcPort, OnReadableFires) {
  IpcPort port(1000);
  int signals = 0;
  port.on_readable([&] { ++signals; });
  port.write(to_bytes("x"));
  port.write(to_bytes("y"));
  EXPECT_EQ(signals, 2);
}

// ----------------------------------------------------------- rate enforcer

rms::Params enforcer_params(std::uint64_t capacity, Time a, Time b) {
  rms::Params p;
  p.capacity = capacity;
  p.max_message_size = capacity;
  p.delay.a = a;
  p.delay.b_per_byte = b;
  return p;
}

TEST(RateBasedEnforcer, WindowIsAPlusCB) {
  sim::Simulator sim;
  // A=10ms, B=1us/B, C=1000 -> period 11ms.
  RateBasedEnforcer e(sim, enforcer_params(1000, msec(10), usec(1)));
  EXPECT_EQ(e.period(), msec(11));
}

TEST(RateBasedEnforcer, BlocksAtCapacityAndExpires) {
  sim::Simulator sim;
  RateBasedEnforcer e(sim, enforcer_params(1000, msec(10), 0));
  EXPECT_TRUE(e.can_send(1000));
  e.note_sent(600);
  EXPECT_TRUE(e.can_send(400));
  EXPECT_FALSE(e.can_send(401));
  e.note_sent(400);
  EXPECT_FALSE(e.can_send(1));
  // After the period, the window clears.
  sim.run_until(msec(10) + 1);
  EXPECT_TRUE(e.can_send(1000));
}

TEST(RateBasedEnforcer, NextAllowedPointsAtExpiry) {
  sim::Simulator sim;
  RateBasedEnforcer e(sim, enforcer_params(1000, msec(10), 0));
  e.note_sent(1000);                      // at t=0
  sim.run_until(msec(4));
  EXPECT_EQ(e.next_allowed(500), msec(10));  // when the t=0 batch ages out
}

TEST(RateBasedEnforcer, PessimisticPacing) {
  // Sending at exactly the implied rate never blocks; doubling it does.
  sim::Simulator sim;
  RateBasedEnforcer e(sim, enforcer_params(1000, msec(10), 0));
  int blocked = 0;
  for (int i = 0; i < 100; ++i) {
    sim.run_until(msec(i));  // 100 B/ms = C per period exactly
    if (e.can_send(100)) {
      e.note_sent(100);
    } else {
      ++blocked;
    }
  }
  EXPECT_EQ(blocked, 0);
}

// ------------------------------------------------------------ ack enforcer

TEST(AckBasedEnforcer, FixedWindowOfCapacity) {
  AckBasedEnforcer e(1000);
  EXPECT_TRUE(e.can_send(1000));
  e.note_sent(1000);
  EXPECT_FALSE(e.can_send(1));
  e.note_acked(400);
  EXPECT_TRUE(e.can_send(400));
  EXPECT_FALSE(e.can_send(401));
  EXPECT_EQ(e.outstanding(), 600u);
}

TEST(AckBasedEnforcer, NextAllowedNeedsAck) {
  AckBasedEnforcer e(100);
  e.note_sent(100);
  EXPECT_EQ(e.next_allowed(1), kTimeNever);
}

// ------------------------------------------------------------ RttEstimator

TEST(RttEstimator, Rfc6298SmoothedRtoWithClamps) {
  RttEstimator e;
  EXPECT_FALSE(e.valid());
  EXPECT_EQ(e.rto(msec(50), sec(5), msec(400)), msec(400));  // fallback

  e.sample(msec(100));
  EXPECT_EQ(e.srtt(), msec(100));
  EXPECT_EQ(e.rttvar(), msec(50));
  EXPECT_EQ(e.rto(msec(50), sec(5), msec(400)), msec(300));  // srtt + 4·var

  e.sample(msec(100));  // zero error shrinks the variance
  EXPECT_EQ(e.srtt(), msec(100));
  EXPECT_LT(e.rttvar(), msec(50));

  RttEstimator fast;
  fast.sample(usec(100));
  EXPECT_EQ(fast.rto(msec(50), sec(5), msec(400)), msec(50));  // min clamp
  RttEstimator slow;
  slow.sample(sec(30));
  EXPECT_EQ(slow.rto(msec(50), sec(5), msec(400)), sec(5));  // max clamp
}

// ------------------------------------------------------------ stream E2E

/// Feeds `payload` through `s` in chunks, respecting sender flow control:
/// a rejected write parks until on_writable fires.
void feed(StreamSender* s, Bytes payload) {
  auto offset = std::make_shared<std::size_t>(0);
  auto data = std::make_shared<Bytes>(std::move(payload));
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [s, offset, data] {
    while (*offset < data->size()) {
      const std::size_t n = std::min<std::size_t>(2048, data->size() - *offset);
      Bytes chunk(data->begin() + static_cast<std::ptrdiff_t>(*offset),
                  data->begin() + static_cast<std::ptrdiff_t>(*offset + n));
      if (!s->write(std::move(chunk)).ok()) return;  // resumes on_writable
      *offset += n;
    }
  };
  s->on_writable([pump] { (*pump)(); });
  (*pump)();
}

struct StreamFixture {
  node::World<net::EthernetNetwork> world;
  StreamConfig config;
  std::unique_ptr<StreamReceiver> receiver;
  std::unique_ptr<StreamSender> sender;
  Bytes received;

  explicit StreamFixture(StreamConfig cfg = {},
                         net::NetworkTraits traits = net::ethernet_traits(),
                         std::uint64_t seed = 42,
                         const rms::Request& data_request = bulk_data_request())
      : world(st_world(2, traits, seed)), config(cfg) {
    receiver = std::make_unique<StreamReceiver>(world.st(2), world.node(2).ports,
                                                /*data_port=*/60, config);
    receiver->on_data([this](Bytes b) { append(received, b); });
    sender = std::make_unique<StreamSender>(world.st(1), world.node(1).ports,
                                            rms::Label{2, 60}, config, data_request);
  }

  void feed(Bytes payload) { transport::feed(sender.get(), std::move(payload)); }
};

TEST(Stream, ReliableTransferDeliversExactBytes) {
  StreamFixture f;
  ASSERT_TRUE(f.sender->ok()) << f.sender->creation_error().message;
  const Bytes payload = patterned_bytes(20'000, 3);
  ASSERT_TRUE(f.sender->write(payload).ok());
  f.world.sim.run_until(sec(10));
  EXPECT_EQ(f.received, payload);
  EXPECT_TRUE(f.sender->drained());
  EXPECT_EQ(f.sender->stats().retransmissions, 0u);  // clean network
}

TEST(Stream, ReliableTransferSurvivesLoss) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 1e-5;  // ~8% frame loss
  StreamConfig cfg;
  cfg.retransmit_timeout = msec(100);
  StreamFixture f(cfg, traits, /*seed=*/7);
  ASSERT_TRUE(f.sender->ok());
  const Bytes payload = patterned_bytes(50'000, 5);
  f.feed(payload);
  f.world.sim.run_until(sec(30));
  EXPECT_EQ(f.received, payload);  // byte-exact despite loss
  EXPECT_GT(f.sender->stats().retransmissions, 0u);
}

TEST(Stream, UnreliableTransferLosesButNeverRetransmits) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 5e-6;
  StreamConfig cfg;
  cfg.reliable = false;
  cfg.capacity = CapacityMode::kRateBased;
  cfg.receiver_flow_control = false;
  StreamFixture f(cfg, traits, /*seed=*/9);
  ASSERT_TRUE(f.sender->ok());
  const Bytes payload = patterned_bytes(100'000, 5);
  f.feed(payload);
  f.world.sim.run_until(sec(30));
  EXPECT_EQ(f.sender->stats().retransmissions, 0u);
  EXPECT_LT(f.received.size(), payload.size());  // losses stay lost
  EXPECT_GT(f.received.size(), payload.size() / 2);
}

TEST(Stream, SenderFlowControlBlocksAndResumes) {
  StreamConfig cfg;
  cfg.send_port_limit = 8 * 1024;
  cfg.capacity = CapacityMode::kAckBased;
  cfg.receiver_flow_control = false;
  // A small data RMS capacity (4 KB) keeps the pump from draining the IPC
  // port instantly: at most 4 KB in flight until fast acks arrive.
  StreamFixture f(cfg, net::ethernet_traits(), 42, bulk_data_request(4096, 1024));
  ASSERT_TRUE(f.sender->ok());

  // Flood the IPC port far beyond its limit.
  std::size_t accepted = 0;
  int rejections = 0;
  for (int i = 0; i < 40; ++i) {
    if (f.sender->write(patterned_bytes(1024, static_cast<std::uint64_t>(i))).ok()) {
      accepted += 1024;
    } else {
      ++rejections;
    }
  }
  EXPECT_GT(rejections, 0);
  // Port limit + at most one RMS capacity drained into flight.
  EXPECT_LE(accepted, 8u * 1024u + 4096u);
  EXPECT_GT(f.sender->stats().write_blocked, 0u);

  // The writable callback fires once acks free the port.
  bool resumed = false;
  f.sender->on_writable([&] { resumed = true; });
  f.world.sim.run_until(sec(5));
  EXPECT_TRUE(resumed);
  EXPECT_EQ(f.received.size(), accepted);
}

TEST(Stream, ReceiverFlowControlProtectsSlowClient) {
  StreamConfig cfg;
  cfg.auto_drain = false;  // the client never reads until we say so
  cfg.receive_buffer = 8 * 1024;
  cfg.receiver_flow_control = true;
  StreamFixture f(cfg);
  ASSERT_TRUE(f.sender->ok());
  f.feed(patterned_bytes(40'000, 2));
  f.world.sim.run_until(sec(5));

  // Sender stalled at the window; nothing was dropped.
  EXPECT_EQ(f.receiver->stats().dropped_overflow, 0u);
  EXPECT_LE(f.receiver->available(), 8u * 1024u);
  EXPECT_GT(f.receiver->available(), 0u);
  EXPECT_FALSE(f.sender->drained());

  // Slow client finally reads; the stream completes.
  Bytes all;
  std::function<void()> drain = [&] {
    append(all, f.receiver->read(2048));
    if (all.size() < 40'000) f.world.sim.after(msec(5), drain);
  };
  drain();
  f.world.sim.run_until(sec(60));
  EXPECT_EQ(all.size(), 40'000u);
  EXPECT_EQ(f.receiver->stats().dropped_overflow, 0u);
  EXPECT_TRUE(f.sender->drained());
}

TEST(Stream, WithoutReceiverFlowControlSlowClientDrops) {
  StreamConfig cfg;
  cfg.auto_drain = false;
  cfg.receive_buffer = 8 * 1024;
  cfg.receiver_flow_control = false;
  cfg.reliable = false;  // otherwise retransmission eventually repairs it
  cfg.capacity = CapacityMode::kRateBased;
  StreamFixture f(cfg);
  ASSERT_TRUE(f.sender->ok());
  f.feed(patterned_bytes(40'000, 2));
  f.world.sim.run_until(sec(10));
  EXPECT_GT(f.receiver->stats().dropped_overflow, 0u);  // buffer overran
}

TEST(Stream, AckBasedCapacityKeepsOutstandingUnderC) {
  StreamConfig cfg;
  cfg.capacity = CapacityMode::kAckBased;
  cfg.receiver_flow_control = false;
  StreamFixture f(cfg);
  ASSERT_TRUE(f.sender->ok());
  const std::uint64_t capacity = f.sender->data_params().capacity;
  f.feed(patterned_bytes(100'000, 1));
  // Sample outstanding bytes during the transfer.
  std::uint64_t max_outstanding = 0;
  for (int i = 0; i < 200; ++i) {
    f.world.sim.run_until(msec(5 * i));
    max_outstanding = std::max<std::uint64_t>(max_outstanding,
                                              f.sender->capacity_outstanding());
  }
  f.world.sim.run_until(sec(30));
  EXPECT_LE(max_outstanding, capacity);
  EXPECT_EQ(f.received.size(), 100'000u);
}

TEST(Stream, RateBasedCapacityThrottlesThroughput) {
  StreamConfig cfg;
  cfg.capacity = CapacityMode::kRateBased;
  cfg.receiver_flow_control = false;
  cfg.reliable = false;
  StreamFixture f(cfg);
  ASSERT_TRUE(f.sender->ok());
  const auto& params = f.sender->data_params();
  const double implied = rms::implied_bandwidth_bytes_per_sec(params);

  ASSERT_TRUE(f.sender->write(patterned_bytes(32'000, 1)).ok());
  f.world.sim.run_until(sec(60));
  ASSERT_EQ(f.received.size(), 32'000u);
  // Rate-based pacing cannot exceed the implied bandwidth C/D by much.
  const double elapsed = to_seconds(f.world.sim.now());
  (void)elapsed;
  EXPECT_GT(implied, 0.0);
}

TEST(Stream, DrainedCallbackFires) {
  StreamFixture f;
  ASSERT_TRUE(f.sender->ok());
  bool drained = false;
  f.sender->on_drained([&] { drained = true; });
  ASSERT_TRUE(f.sender->write(patterned_bytes(4096, 1)).ok());
  f.world.sim.run_until(sec(10));
  EXPECT_TRUE(drained);
}

TEST(Stream, FailsGracefullyWithoutRoute) {
  auto world = st_world(2);
  StreamConfig cfg;
  StreamSender sender(world.st(1), world.node(1).ports, rms::Label{77, 60}, cfg);
  EXPECT_FALSE(sender.ok());
  EXPECT_EQ(sender.creation_error().code, Errc::kNoRoute);
  EXPECT_FALSE(sender.write(patterned_bytes(10)).ok());
}

TEST(Stream, AdaptiveRtoTracksMeasuredRtt) {
  // The default ack-based stream samples RTTs from cumulative acks and
  // shrinks its RTO from the 400 ms static fallback toward the LAN RTT.
  StreamFixture f;
  ASSERT_TRUE(f.sender->ok());
  EXPECT_EQ(f.sender->current_rto(), f.config.retransmit_timeout);
  f.feed(patterned_bytes(40'000, 4));
  f.world.sim.run_until(sec(20));
  EXPECT_TRUE(f.sender->drained());
  EXPECT_GT(f.sender->stats().rtt_samples, 0u);
  EXPECT_GT(f.sender->srtt(), 0);
  EXPECT_LT(f.sender->current_rto(), f.config.retransmit_timeout);
  EXPECT_GE(f.sender->current_rto(), f.config.min_rto);
}

TEST(Stream, FixedRtoWhenAdaptiveDisabled) {
  StreamConfig cfg;
  cfg.adaptive_rto = false;
  StreamFixture f(cfg);
  ASSERT_TRUE(f.sender->ok());
  f.feed(patterned_bytes(40'000, 4));
  f.world.sim.run_until(sec(20));
  EXPECT_TRUE(f.sender->drained());
  // Samples are still collected (telemetry), but the timer stays fixed.
  EXPECT_EQ(f.sender->current_rto(), cfg.retransmit_timeout);
}

// -------------------------- ack-windowed best-effort vs deterministic (§4.4)

/// A 32 KB gateway: the C8 world in miniature.
net::NetworkTraits congested_traits() {
  auto traits = net::internet_traits();
  traits.buffer_bytes = 32 * 1024;
  return traits;
}

/// The deterministic stream's ledger verdict plus the gateway drop count.
struct DetVerdict {
  std::uint64_t delivered = 0;
  std::uint64_t misses = 0;
  bool holds = false;
  std::uint64_t gateway_drops = 0;
  std::uint64_t be_delivered_bytes = 0;  ///< best-effort bulk progress
};

constexpr std::size_t kBestEffortBytes = 128 * 1024;

/// Runs a deterministic metered stream 1→100, optionally alongside an
/// ack-windowed best-effort bulk stream 2→100 through the same gateway.
DetVerdict run_det(bool with_best_effort) {
  auto w = dash::testing::wan_world({1, 2}, {100}, congested_traits(), /*seed=*/71);

  // Deterministic stream: 200 × 256 B messages, one every 5 ms (the C8
  // bench's reservation shape).
  auto det_request = bulk_data_request(3 * 1024, 500);
  det_request.desired.delay.type = rms::BoundType::kDeterministic;
  det_request.acceptable.delay.type = rms::BoundType::kDeterministic;
  det_request.desired.delay.a = msec(500);
  det_request.acceptable.delay.a = sec(30);
  auto det_stream = w.st(1).create(det_request, rms::Label{100, 70});
  EXPECT_TRUE(det_stream.ok()) << det_stream.error().message;
  if (!det_stream.ok()) return {};

  telemetry::GuaranteeLedger ledger;
  ledger.open(1, "det 1->100", det_stream.value()->params(), 1, 100);
  rms::Port det_port;
  w.node(100).ports.bind(70, &det_port);
  sim::Simulator* simp = &w.sim;
  ledger.watch(det_port, 1, [simp] { return simp->now(); });

  rms::Rms* raw = det_stream.value().get();
  telemetry::GuaranteeLedger* lp = &ledger;
  for (int i = 0; i < 200; ++i) {
    w.sim.at(msec(5) * (i + 1), [raw, lp] {
      rms::Message m;
      m.data = Bytes(256);
      lp->on_send(1, m.data.size());
      (void)raw->send(std::move(m));
    });
  }

  // Optional best-effort bulk transfer whose 8 KB capacity is charged
  // against fast acks.
  std::unique_ptr<StreamReceiver> rx;
  std::unique_ptr<StreamSender> tx;
  if (with_best_effort) {
    StreamConfig cfg;
    cfg.capacity = CapacityMode::kAckBased;
    cfg.message_size = 500;
    rx = std::make_unique<StreamReceiver>(w.st(100), w.node(100).ports, 60, cfg);
    auto request = bulk_data_request(8 * 1024, 500);
    request.desired.delay.a = msec(500);
    request.acceptable.delay.a = sec(30);
    tx = std::make_unique<StreamSender>(w.st(2), w.node(2).ports,
                                        rms::Label{100, 60}, cfg, request);
    EXPECT_TRUE(tx->ok()) << tx->creation_error().message;
    if (!tx->ok()) return {};
    feed(tx.get(), patterned_bytes(kBestEffortBytes, 2));
  }

  w.sim.run_until(sec(20));

  DetVerdict out;
  const telemetry::StreamAccount* a = ledger.find(1);
  out.delivered = a->delivered;
  out.misses = a->misses;
  out.holds = a->guarantee_holds();
  out.gateway_drops = w.network->gateway_drops();
  if (rx) out.be_delivered_bytes = rx->contiguous_bytes();
  return out;
}

TEST(Stream, AckWindowedBestEffortLeavesDeterministicVerdictsUntouched) {
  const DetVerdict alone = run_det(false);
  const DetVerdict shared = run_det(true);

  // The deterministic class's ledger verdict is identical whether or not a
  // best-effort stream shares the gateway: same deliveries, same (zero)
  // misses, guarantee still holds.
  EXPECT_EQ(alone.delivered, 200u);
  EXPECT_EQ(shared.delivered, alone.delivered);
  EXPECT_EQ(shared.misses, alone.misses);
  EXPECT_EQ(shared.misses, 0u);
  EXPECT_TRUE(alone.holds);
  EXPECT_TRUE(shared.holds);

  // The best-effort stream moved all of its data, so the comparison above
  // is not vacuous.
  EXPECT_EQ(shared.be_delivered_bytes, kBestEffortBytes);

  // Its capacity window fits the gateway buffer: no drops in either run.
  EXPECT_EQ(alone.gateway_drops, 0u);
  EXPECT_EQ(shared.gateway_drops, 0u);
}

}  // namespace
}  // namespace dash::transport

// TokenBucketEnforcer tests: the §5 statistical-workload regulator.
namespace dash::transport {
namespace {

rms::Params statistical_params(double load_bps, double burstiness) {
  rms::Params p;
  p.capacity = 64 * 1024;
  p.max_message_size = 1024;
  p.delay.type = rms::BoundType::kStatistical;
  p.delay.a = msec(50);
  p.statistical.average_load_bps = load_bps;
  p.statistical.burstiness = burstiness;
  p.statistical.delay_probability = 0.95;
  return p;
}

TEST(TokenBucket, ConformantSourceNeverBlocked) {
  sim::Simulator sim;
  // 80 kb/s = 10 KB/s; a 160-byte frame every 20 ms is 8 KB/s: conformant.
  TokenBucketEnforcer tb(sim, statistical_params(80'000, 2.0));
  for (int i = 0; i < 500; ++i) {
    sim.run_until(msec(20 * i));
    ASSERT_TRUE(tb.can_send(160)) << "blocked at frame " << i;
    tb.note_sent(160);
  }
}

TEST(TokenBucket, OverRateSourceShapedToDeclaredAverage) {
  sim::Simulator sim;
  TokenBucketEnforcer tb(sim, statistical_params(80'000, 2.0));  // 10 KB/s
  std::uint64_t sent = 0;
  for (int i = 0; i < 10'000; ++i) {
    sim.run_until(usec(500 * i));  // attempts at 4x the declared rate
    if (tb.can_send(250)) {
      tb.note_sent(250);
      sent += 250;
    }
  }
  const double rate = static_cast<double>(sent) / to_seconds(sim.now());
  EXPECT_NEAR(rate, 10'000.0, 1'000.0);  // shaped to ~10 KB/s
}

TEST(TokenBucket, BurstUpToDepthPassesAtOnce) {
  sim::Simulator sim;
  // depth = burstiness * rate * 100ms = 3 * 10KB/s * 0.1 = 3000 bytes.
  TokenBucketEnforcer tb(sim, statistical_params(80'000, 3.0));
  EXPECT_NEAR(tb.depth(), 3000.0, 1.0);
  std::uint64_t burst = 0;
  while (tb.can_send(500)) {
    tb.note_sent(500);
    burst += 500;
  }
  EXPECT_EQ(burst, 3000u);  // the whole declared burst, instantly
  EXPECT_FALSE(tb.can_send(500));
}

TEST(TokenBucket, NextAllowedPredictsRefill) {
  sim::Simulator sim;
  // The declared 1000-byte depth is floored at max_message_size: 1024.
  TokenBucketEnforcer tb(sim, statistical_params(80'000, 1.0));
  EXPECT_EQ(tb.depth(), 1024.0);
  while (tb.can_send(1000)) tb.note_sent(1000);
  const Time when = tb.next_allowed(1000);
  EXPECT_GT(when, sim.now());
  sim.run_until(when);
  EXPECT_TRUE(tb.can_send(1000));
}

// Envelope property: in any interval, bytes <= depth + rate * interval.
TEST(TokenBucket, EnvelopePropertyUnderRandomTraffic) {
  Rng rng(7);
  sim::Simulator sim;
  const double rate = 10'000.0;  // bytes/sec
  TokenBucketEnforcer tb(sim, statistical_params(80'000, 2.0));
  std::vector<std::pair<Time, std::size_t>> sends;
  for (int i = 0; i < 3000; ++i) {
    sim.run_for(usec(rng.range(10, 2000)));
    const auto n = static_cast<std::size_t>(rng.range(1, 800));
    if (tb.can_send(n)) {
      tb.note_sent(n);
      sends.emplace_back(sim.now(), n);
    }
  }
  const double depth = tb.depth();
  for (std::size_t i = 0; i < sends.size(); i += 7) {
    std::uint64_t in_window = 0;
    for (std::size_t j = i; j < sends.size(); ++j) {
      const double interval = to_seconds(sends[j].first - sends[i].first);
      if (interval > 0.5) break;
      in_window += sends[j].second;
      ASSERT_LE(static_cast<double>(in_window), depth + rate * interval + 801.0)
          << "envelope violated at send " << i;
    }
  }
}

/// Bytes a token-bucket stream declaring (load_bps, burstiness) delivers in
/// 10 simulated seconds while its client writes as fast as it can.
std::size_t shaped_bytes_in_10s(double load_bps, double burstiness) {
  auto world = dash::testing::st_world(2);
  StreamConfig cfg;
  cfg.capacity = CapacityMode::kTokenBucket;
  cfg.receiver_flow_control = false;
  cfg.reliable = false;

  auto request = bulk_data_request(32 * 1024, 1024);
  request.desired.delay.type = rms::BoundType::kStatistical;
  request.acceptable.delay.type = rms::BoundType::kBestEffort;
  request.desired.statistical.average_load_bps = load_bps;
  request.desired.statistical.burstiness = burstiness;
  request.desired.statistical.delay_probability = 0.95;

  StreamReceiver rx(world.st(2), world.node(2).ports, 60, cfg);
  std::size_t got = 0;
  rx.on_data([&](Bytes b) { got += b.size(); });
  StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, cfg, request);
  EXPECT_TRUE(tx.ok()) << tx.creation_error().message;
  if (!tx.ok()) return 0;

  auto feed = std::make_shared<std::function<void()>>();
  *feed = [&] {
    while (tx.write(patterned_bytes(2048, got)).ok()) {
    }
  };
  tx.on_writable([feed] { (*feed)(); });
  (*feed)();
  world.sim.run_until(sec(10));
  return got;
}

TEST(TokenBucket, StreamIntegration) {
  // A statistical stream shaped by its own declaration: the transfer rate
  // converges to the declared average even though the client writes as
  // fast as it can.
  const double rate = static_cast<double>(shaped_bytes_in_10s(400'000, 2.0)) / 10.0;
  EXPECT_NEAR(rate, 50'000.0, 5'000.0);  // 50 KB/s, as declared
}

TEST(TokenBucket, BucketShallowerThanAChunkStillSends) {
  // 64 kb/s at burstiness 1 declares an 800-byte bucket (8 KB/s x 100 ms),
  // less than one 1007-byte chunk. Floored at max_message_size, the bucket
  // still lets every chunk out at the declared 8 KB/s instead of stalling.
  const double rate = static_cast<double>(shaped_bytes_in_10s(64'000, 1.0)) / 10.0;
  EXPECT_NEAR(rate, 8'000.0, 800.0);
}

}  // namespace
}  // namespace dash::transport
