// Tests for the model-based congestion-control subsystem (DESIGN.md §13):
// the delivery-rate sampler, min-RTT filter and RTO estimator, the
// BBR-flavored bandwidth model and its source-quench response, the pacer's
// schedule, RACK loss marking, and the ModelEnforcer wired
// into a transport stream — including seeded determinism and the
// keep-the-deterministic-class-clean property the C8 bench gates.
#include <gtest/gtest.h>

#include <tuple>

#include "cc/enforcer.h"
#include "cc/model.h"
#include "cc/pacer.h"
#include "cc/rack.h"
#include "cc/sampler.h"
#include "telemetry/ledger.h"
#include "transport/stream.h"
#include "test_helpers.h"

namespace dash::cc {
namespace {

using dash::testing::st_world;

// ------------------------------------------------------------ MinRttFilter

TEST(MinRttFilter, TracksWindowedMinimum) {
  MinRttFilter f(msec(100));
  EXPECT_EQ(f.get(0), -1);
  f.update(msec(0), msec(5));
  f.update(msec(10), msec(7));
  EXPECT_EQ(f.get(msec(10)), msec(5));
  f.update(msec(20), msec(3));  // new minimum displaces both
  EXPECT_EQ(f.get(msec(20)), msec(3));
}

TEST(MinRttFilter, MinimumExpiresOutOfWindow) {
  MinRttFilter f(msec(100));
  f.update(msec(0), msec(3));
  f.update(msec(50), msec(5));
  EXPECT_EQ(f.get(msec(60)), msec(3));
  // The 3 ms sample ages out; the 5 ms one becomes the window minimum.
  EXPECT_EQ(f.get(msec(120)), msec(5));
  EXPECT_EQ(f.get(msec(300)), -1);  // everything expired
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

// ----------------------------------------------------- DeliveryRateSampler

TEST(DeliveryRateSampler, MeasuresDeliveredOverFlightInterval) {
  DeliveryRateSampler s;
  s.on_sent(1, 1000, msec(0), /*app_limited=*/false);
  auto smp = s.on_ack(1, msec(10));
  ASSERT_TRUE(smp.has_value());
  EXPECT_EQ(smp->rtt, msec(10));
  EXPECT_NEAR(smp->bw_Bps, 100'000.0, 1.0);  // 1000 B over 10 ms
  EXPECT_FALSE(smp->app_limited);
  EXPECT_EQ(s.delivered_bytes(), 1000u);
  EXPECT_EQ(s.acked(), 1u);
  EXPECT_EQ(s.tracked(), 0u);
}

TEST(DeliveryRateSampler, AckAggregationDoesNotOverReport) {
  // Two sends, both acked at the same instant: the second sample's
  // interval covers both deliveries, so the measured rate is the true
  // aggregate, not double-counted per ack.
  DeliveryRateSampler s;
  s.on_sent(1, 1000, msec(0), false);
  s.on_sent(2, 1000, msec(0), false);
  ASSERT_TRUE(s.on_ack(1, msec(10)).has_value());
  auto smp = s.on_ack(2, msec(10));
  ASSERT_TRUE(smp.has_value());
  EXPECT_NEAR(smp->bw_Bps, 200'000.0, 1.0);  // 2000 B over the same 10 ms
}

TEST(DeliveryRateSampler, KarnAmbiguityAndLateAcksYieldNoSample) {
  DeliveryRateSampler s;
  s.on_sent(1, 1000, msec(0), false);
  s.on_retransmit(1, msec(5));
  EXPECT_FALSE(s.on_ack(1, msec(10)).has_value());  // ambiguous (Karn)
  EXPECT_EQ(s.delivered_bytes(), 1000u);            // delivery still counted

  s.on_sent(2, 500, msec(20), false);
  EXPECT_FALSE(s.on_ack(2, msec(30), /*rtt_eligible=*/false).has_value());
  EXPECT_EQ(s.delivered_bytes(), 1500u);

  EXPECT_FALSE(s.on_ack(99, msec(40)).has_value());  // unknown id
}

// -------------------------------------------------------------------- Pacer

TEST(Pacer, SpreadsSendsAtRate) {
  sim::Simulator sim;
  Pacer p(sim);
  p.set_rate(1e6);  // 1 MB/s: 1000 bytes = 1 ms of schedule
  EXPECT_TRUE(p.can_send(1000));
  p.note_sent(1000);
  EXPECT_FALSE(p.can_send(1000));
  EXPECT_EQ(p.next_allowed(1000), msec(1));
  sim.run_until(msec(2));
  EXPECT_TRUE(p.can_send(1000));
}

TEST(Pacer, RateZeroDisablesPacing) {
  sim::Simulator sim;
  Pacer p(sim);
  p.note_sent(1'000'000);
  EXPECT_TRUE(p.can_send(1'000'000));
  EXPECT_EQ(p.next_allowed(1), sim.now());
}

TEST(Pacer, BurstBoundsIdleCredit) {
  sim::Simulator sim;
  Pacer p(sim);
  p.set_rate(1e6);
  p.set_burst(2000);
  sim.run_until(sec(1));  // long idle: credit must not accumulate unbounded
  p.note_sent(1000);
  // The schedule floor is now − burst/rate, so after one 1000-byte send
  // the next release is at most (1000 − 2000)/rate past now — still open.
  EXPECT_TRUE(p.can_send(1000));
  p.note_sent(1000);
  p.note_sent(1000);
  EXPECT_FALSE(p.can_send(1000));  // burst spent, pacing engages
}

// ---------------------------------------------------------- BandwidthModel

DeliveryRateSampler::Sample flat_sample(double bw, Time rtt, std::uint64_t at) {
  DeliveryRateSampler::Sample s;
  s.bw_Bps = bw;
  s.rtt = rtt;
  s.delivered_at_send = at;
  return s;
}

TEST(BandwidthModel, StartupExitsWhenBandwidthPlateaus) {
  BandwidthModel m;
  EXPECT_EQ(m.phase(), Phase::kStartup);
  std::uint64_t delivered = 0;
  Time now = 0;
  for (int i = 0; i < 8; ++i) {
    const auto s = flat_sample(1e6, msec(10), delivered);
    delivered += 10'000;
    now += msec(10);
    m.on_sample(s, delivered, /*inflight=*/5'000, now);
  }
  // Three rounds without 1.25x growth end startup; 5 KB inflight is under
  // the 10 KB BDP, so drain passes straight through to probe-bw.
  EXPECT_EQ(m.phase(), Phase::kProbeBw);
  EXPECT_NEAR(m.btlbw_Bps(), 1e6, 1e3);
  EXPECT_EQ(m.min_rtt(), msec(10));
  EXPECT_GE(m.rounds(), 4u);
}

TEST(BandwidthModel, AppLimitedSamplesOnlyRaiseTheEstimate) {
  BandwidthModel m;
  std::uint64_t delivered = 0;
  Time now = 0;
  auto feed = [&](double bw, bool app_limited) {
    auto s = flat_sample(bw, msec(10), delivered);
    s.app_limited = app_limited;
    delivered += 10'000;
    now += msec(10);
    m.on_sample(s, delivered, 5'000, now);
  };
  feed(1e6, false);
  EXPECT_NEAR(m.btlbw_Bps(), 1e6, 1e3);
  feed(1e5, true);  // slow because the app went idle: not path evidence
  EXPECT_NEAR(m.btlbw_Bps(), 1e6, 1e3);
  feed(2e6, true);  // faster though app-limited: the path proved it
  EXPECT_NEAR(m.btlbw_Bps(), 2e6, 1e3);
}

TEST(BandwidthModel, QuenchCutsRateEndsStartupAndRecovers) {
  BandwidthModel m;
  const double before = m.pacing_rate_Bps();
  m.on_quench(msec(1));
  EXPECT_EQ(m.phase(), Phase::kDrain);
  EXPECT_EQ(m.quenches(), 1u);
  EXPECT_LT(m.pacing_rate_Bps(), before);
  EXPECT_NEAR(m.quench_factor(), 0.7, 1e-9);

  for (int i = 0; i < 20; ++i) m.on_quench(msec(2) + i);
  EXPECT_GE(m.quench_factor(), 0.125);  // floored

  // A quiet recovery interval steps the factor back toward 1.
  const double floored = m.quench_factor();
  m.on_sample(flat_sample(1e6, msec(10), 0), 10'000, 1'000, msec(2) + sec(1));
  EXPECT_GT(m.quench_factor(), floored);
}

TEST(BandwidthModel, ProbeBwCyclesGainsDeterministically) {
  BandwidthModel a, b;
  std::uint64_t delivered = 0;
  Time now = 0;
  for (int i = 0; i < 40; ++i) {
    const auto s = flat_sample(1e6, msec(10), delivered);
    delivered += 10'000;
    now += msec(10);
    a.on_sample(s, delivered, 5'000, now);
    b.on_sample(s, delivered, 5'000, now);
  }
  EXPECT_EQ(a.phase(), Phase::kProbeBw);
  EXPECT_EQ(a.phase(), b.phase());
  EXPECT_EQ(a.pacing_rate_Bps(), b.pacing_rate_Bps());
  EXPECT_EQ(a.cwnd_bytes(), b.cwnd_bytes());
}

// ---------------------------------------------------------------- RackState

TEST(RackState, ReorderingWindowSuppressesSpuriousLoss) {
  RackState r;
  EXPECT_FALSE(r.lost(msec(0), msec(10)));   // nothing delivered yet
  EXPECT_TRUE(r.on_delivered(msec(10)));
  EXPECT_FALSE(r.on_delivered(msec(5)));     // older delivery: no advance
  EXPECT_EQ(r.xmit_time(), msec(10));

  EXPECT_EQ(r.reo_wnd(msec(10)), msec(5));   // 0.5 × srtt
  EXPECT_FALSE(r.lost(msec(6), msec(10)));   // inside the window: reordered
  EXPECT_TRUE(r.lost(msec(4), msec(10)));    // a window behind: lost

  EXPECT_EQ(r.reo_wnd(0), msec(1));          // floor
  EXPECT_EQ(r.reo_wnd(sec(10)), msec(100));  // ceiling
}

// --------------------------------------------- ModelEnforcer + StreamSender

struct ModelStreamFixture {
  node::World<net::EthernetNetwork> world;
  transport::StreamConfig config;
  std::unique_ptr<transport::StreamReceiver> receiver;
  std::unique_ptr<transport::StreamSender> sender;
  Bytes received;

  explicit ModelStreamFixture(transport::StreamConfig cfg = model_config(),
                              net::NetworkTraits traits = net::ethernet_traits(),
                              std::uint64_t seed = 42)
      : world(st_world(2, traits, seed)), config(cfg) {
    receiver = std::make_unique<transport::StreamReceiver>(
        world.st(2), world.node(2).ports, /*data_port=*/60, config);
    receiver->on_data([this](Bytes b) { append(received, b); });
    sender = std::make_unique<transport::StreamSender>(
        world.st(1), world.node(1).ports, rms::Label{2, 60}, config);
  }

  static transport::StreamConfig model_config() {
    transport::StreamConfig cfg;
    cfg.capacity = transport::CapacityMode::kModel;
    return cfg;
  }

  void feed(Bytes payload) {
    auto offset = std::make_shared<std::size_t>(0);
    auto data = std::make_shared<Bytes>(std::move(payload));
    auto pump = std::make_shared<std::function<void()>>();
    transport::StreamSender* s = sender.get();
    *pump = [s, offset, data] {
      while (*offset < data->size()) {
        const std::size_t n = std::min<std::size_t>(2048, data->size() - *offset);
        Bytes chunk(data->begin() + static_cast<std::ptrdiff_t>(*offset),
                    data->begin() + static_cast<std::ptrdiff_t>(*offset + n));
        if (!s->write(std::move(chunk)).ok()) return;
        *offset += n;
      }
    };
    s->on_writable([pump] { (*pump)(); });
    (*pump)();
  }
};

TEST(ModelStream, ReliableTransferDeliversExactBytes) {
  ModelStreamFixture f;
  ASSERT_TRUE(f.sender->ok()) << f.sender->creation_error().message;
  ASSERT_NE(f.sender->model(), nullptr);
  const Bytes payload = patterned_bytes(60'000, 3);
  f.feed(payload);
  f.world.sim.run_until(sec(30));
  EXPECT_EQ(f.received, payload);
  EXPECT_TRUE(f.sender->drained());
  // Clean LAN: no losses, so neither RACK nor the RTO may fire — any
  // retransmission here would be spurious.
  EXPECT_EQ(f.sender->stats().retransmissions, 0u);
  EXPECT_EQ(f.sender->stats().rack_retransmits, 0u);
  // The model saw real delivery evidence.
  EXPECT_GT(f.sender->model()->delivered_bytes(), 0u);
  EXPECT_GT(f.sender->model()->btlbw_Bps(), 0.0);
}

TEST(ModelStream, SameSeedSameSchedule) {
  auto run = [] {
    ModelStreamFixture f;
    f.feed(patterned_bytes(40'000, 7));
    f.world.sim.run_until(sec(20));
    return std::make_tuple(
        f.world.sim.now(), f.received.size(), f.sender->stats().messages_sent,
        f.sender->stats().bytes_sent, f.sender->stats().retransmissions,
        f.sender->stats().rtt_samples, f.sender->model()->btlbw_Bps(),
        f.sender->model()->min_rtt(), f.sender->model()->pacing_rate_Bps(),
        static_cast<int>(f.sender->model()->phase()));
  };
  // Property: the pacing schedule is a pure function of the seed — two
  // identical worlds produce identical send counts, byte counts, model
  // state, and final simulated clock.
  EXPECT_EQ(run(), run());
}

TEST(ModelStream, SurvivesLossAndRecoversViaRack) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 1e-5;  // ~8% frame loss
  ModelStreamFixture f(ModelStreamFixture::model_config(), traits, /*seed=*/7);
  ASSERT_TRUE(f.sender->ok());
  const Bytes payload = patterned_bytes(60'000, 5);
  f.feed(payload);
  f.world.sim.run_until(sec(60));
  EXPECT_EQ(f.received, payload);  // byte-exact despite loss
  // Time-based marking recovered at least part of the loss ahead of the
  // RTO (every RACK resend is also counted in retransmissions).
  EXPECT_GT(f.sender->stats().retransmissions, 0u);
  EXPECT_LE(f.sender->stats().rack_retransmits,
            f.sender->stats().retransmissions);
}

TEST(ModelStream, AdaptiveRtoConvergesBelowFixedDefault) {
  ModelStreamFixture f;
  ASSERT_TRUE(f.sender->ok());
  EXPECT_EQ(f.sender->current_rto(), msec(400));  // fallback before samples
  f.feed(patterned_bytes(40'000, 2));
  f.world.sim.run_until(sec(20));
  EXPECT_GT(f.sender->stats().rtt_samples, 0u);
  EXPECT_GT(f.sender->srtt(), 0);
  EXPECT_LT(f.sender->current_rto(), msec(400));  // LAN RTT << the old fixed RTO
  EXPECT_GE(f.sender->current_rto(), f.config.min_rto);
}

// ------------------------------------- paced best-effort vs deterministic

/// A 32 KB gateway: the C8 world in miniature.
net::NetworkTraits congested_traits() {
  auto traits = net::internet_traits();
  traits.buffer_bytes = 32 * 1024;
  return traits;
}

/// Runs a deterministic metered stream 1→100, optionally alongside a
/// paced best-effort bulk stream 2→100, and returns the deterministic
/// stream's ledger verdict plus the gateway drop count.
struct DetVerdict {
  std::uint64_t delivered = 0;
  std::uint64_t misses = 0;
  bool holds = false;
  std::uint64_t gateway_drops = 0;
  std::uint64_t be_delivered_bytes = 0;  ///< best-effort bulk progress
};

DetVerdict run_det_with_optional_cc(bool with_cc) {
  auto w = dash::testing::wan_world({1, 2}, {100}, congested_traits(), /*seed=*/71);
  w.network->enable_source_quench(true);

  // Deterministic stream: 200 × 256 B messages, one every 5 ms (the C8
  // bench's reservation shape).
  auto det_request = transport::bulk_data_request(3 * 1024, 500);
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

  // Optional paced best-effort bulk transfer through the same gateway.
  std::unique_ptr<transport::StreamReceiver> rx;
  std::unique_ptr<transport::StreamSender> tx;
  if (with_cc) {
    transport::StreamConfig cfg;
    cfg.capacity = transport::CapacityMode::kModel;
    cfg.message_size = 500;
    rx = std::make_unique<transport::StreamReceiver>(w.st(100),
                                                     w.node(100).ports, 60, cfg);
    auto request = transport::bulk_data_request(8 * 1024, 500);
    request.desired.delay.a = msec(500);
    request.acceptable.delay.a = sec(30);
    tx = std::make_unique<transport::StreamSender>(
        w.st(2), w.node(2).ports, rms::Label{100, 60}, cfg, request);
    EXPECT_TRUE(tx->ok()) << tx->creation_error().message;
    if (!tx->ok()) return {};
    for (std::size_t off = 0; off < 128 * 1024; off += 2048) {
      (void)tx->write(patterned_bytes(2048, off));
    }
  }

  w.sim.run_until(sec(20));

  DetVerdict out;
  const telemetry::StreamAccount* a = ledger.find(1);
  out.delivered = a->delivered;
  out.misses = a->misses;
  out.holds = a->guarantee_holds();
  out.gateway_drops = w.network->gateway_drops();
  if (tx && tx->model()) out.be_delivered_bytes = tx->model()->delivered_bytes();
  return out;
}

TEST(ModelStream, PacedBestEffortLeavesDeterministicVerdictsUntouched) {
  const DetVerdict alone = run_det_with_optional_cc(false);
  const DetVerdict shared = run_det_with_optional_cc(true);

  // The deterministic class's ledger verdict is byte-identical whether or
  // not a paced best-effort stream shares the gateway: same deliveries,
  // same (zero) misses, guarantee still holds.
  EXPECT_EQ(alone.delivered, 200u);
  EXPECT_EQ(shared.delivered, alone.delivered);
  EXPECT_EQ(shared.misses, alone.misses);
  EXPECT_EQ(shared.misses, 0u);
  EXPECT_TRUE(alone.holds);
  EXPECT_TRUE(shared.holds);

  // The best-effort stream really moved data — the comparison above is
  // not vacuous.
  EXPECT_GT(shared.be_delivered_bytes, 0u);

  // And the paced sender itself never overran the gateway: drops stay at
  // the deterministic-regime zero.
  EXPECT_EQ(alone.gateway_drops, 0u);
  EXPECT_EQ(shared.gateway_drops, 0u);
}

}  // namespace
}  // namespace dash::cc
