// Tests for the network-RMS provider: negotiation (§2.4), admission
// (§2.3), delivery semantics, checksum elision (§2.1/§2.5), establishment
// cost (§4.2), and failure notification.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/token_ring.h"
#include "netrms/admission.h"
#include "netrms/fabric.h"
#include "test_helpers.h"
#include "workload/udp_world.h"

namespace dash::netrms {
namespace {

using dash::testing::wan_world;
using dash::testing::st_world;
using dash::testing::loose_request;

rms::Message text_message(std::string_view s) {
  rms::Message m;
  m.data = to_bytes(s);
  return m;
}

// ------------------------------------------------------------- creation

TEST(NetRms, CreateAndDeliver) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);

  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  ASSERT_TRUE(rms.value()->send(text_message("first message")).ok());
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  auto m = port.poll();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(to_string(m->data), "first message");
  EXPECT_EQ(m->target, (rms::Label{2, 10}));
  EXPECT_EQ(m->source.host, 1u);
}

TEST(NetRms, MessagesDeliveredInSequence) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rms.value()->send(text_message(std::to_string(i))).ok());
  }
  world.sim.run();
  ASSERT_EQ(port.delivered(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(to_string(port.poll()->data), std::to_string(i));
  }
  EXPECT_EQ(world.fabric->stats().out_of_order, 0u);
}

TEST(NetRms, UnknownTargetHostRejected) {
  auto world = st_world(2);
  auto rms = world.fabric->create(1, loose_request(), {99, 10});
  ASSERT_FALSE(rms.ok());
  EXPECT_EQ(rms.error().code, Errc::kNoRoute);
}

TEST(NetRms, UnboundPortCountsDrop) {
  auto world = st_world(2);
  auto rms = world.fabric->create(1, loose_request(), {2, 77});
  ASSERT_TRUE(rms.ok());
  rms.value()->send(text_message("nobody home"));
  world.sim.run();
  EXPECT_EQ(world.fabric->stats().no_port_drops, 1u);
}

TEST(NetRms, OversizedMessageRejectedAtSend) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto rms = world.fabric->create(1, loose_request(8192, 100), {2, 10});
  ASSERT_TRUE(rms.ok());
  rms::Message big;
  big.data = patterned_bytes(101);
  const auto status = rms.value()->send(std::move(big));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kMessageTooLarge);
}

TEST(NetRms, SendOnClosedFails) {
  auto world = st_world(2);
  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok());
  rms.value()->close();
  const auto status = rms.value()->send(text_message("late"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kClosed);
}

// ----------------------------------------------------------- negotiation

TEST(NetRmsNegotiate, PrivacyUnsupportedOnOpenNetwork) {
  auto world = st_world(2);
  auto req = loose_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto result = world.fabric->negotiate(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::kIncompatibleParams);
}

TEST(NetRmsNegotiate, PrivacyGrantedWithLinkEncryption) {
  auto traits = net::ethernet_traits();
  traits.link_encryption = true;
  auto world = st_world(2, traits);
  auto req = loose_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto result = world.fabric->negotiate(req);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_TRUE(result.value().quality.privacy);
}

TEST(NetRmsNegotiate, DesiredPrivacyDroppedWhenOptional) {
  auto world = st_world(2);
  auto req = loose_request();
  req.desired.quality.privacy = true;  // want it, don't require it
  auto result = world.fabric->negotiate(req);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().quality.privacy);  // ST will encrypt instead
}

TEST(NetRmsNegotiate, TrustedNetworkGrantsAuthAndPrivacy) {
  auto traits = net::ethernet_traits();
  traits.trusted = true;
  auto world = st_world(2, traits);
  auto req = loose_request();
  req.desired.quality.privacy = true;
  req.desired.quality.authenticated = true;
  req.acceptable.quality = req.desired.quality;
  auto result = world.fabric->negotiate(req);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().quality.privacy);
  EXPECT_TRUE(result.value().quality.authenticated);
}

TEST(NetRmsNegotiate, ReliabilityImpossibleOnLossyMedium) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 1e-6;
  auto world = st_world(2, traits);
  // Tolerate the medium's raw loss; this test is about the reliable bit.
  auto req = loose_request(8192, 512, 1.0);
  req.desired.quality.reliable = true;
  req.acceptable.quality.reliable = true;
  auto result = world.fabric->negotiate(req);
  ASSERT_FALSE(result.ok());

  // But optional reliability degrades gracefully.
  req.acceptable.quality.reliable = false;
  result = world.fabric->negotiate(req);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().quality.reliable);
}

TEST(NetRmsNegotiate, MessageSizeCappedByFrameLimit) {
  auto world = st_world(2);
  auto req = loose_request(1 << 20, 100);
  req.desired.max_message_size = 1 << 20;
  auto result = world.fabric->negotiate(req);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().max_message_size,
            net::ethernet_traits().max_packet_bytes - kHeaderBytes);
}

TEST(NetRmsNegotiate, AcceptableMessageSizeAboveFrameLimitRejected) {
  auto world = st_world(2);
  auto req = loose_request(1 << 20, 2000);  // acceptable mms > frame limit
  auto result = world.fabric->negotiate(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::kIncompatibleParams);
}

TEST(NetRmsNegotiate, DelayFloorRespected) {
  auto world = st_world(2);
  auto req = loose_request();
  req.desired.delay.a = 1;  // 1 ns: impossible
  req.acceptable.delay.a = msec(100);
  auto result = world.fabric->negotiate(req);
  ASSERT_TRUE(result.ok());
  const auto limits =
      net::quality_limits(world.network->traits(), result.value().quality);
  EXPECT_EQ(result.value().delay.a, limits.min_delay_a);
  EXPECT_GE(result.value().delay.a, usec(10));  // at least propagation
}

TEST(NetRmsNegotiate, ImpossibleAcceptableDelayRejected) {
  auto world = st_world(2);
  auto req = loose_request();
  req.desired.delay.a = 1;
  req.acceptable.delay.a = 1;
  auto result = world.fabric->negotiate(req);
  ASSERT_FALSE(result.ok());
}

TEST(NetRmsNegotiate, ActualAlwaysCompatibleWithAcceptable) {
  // Property: for a grid of requests, a successful negotiation returns
  // parameters compatible with the acceptable set (§2.4).
  auto world = st_world(2);
  for (std::uint64_t cap : {512u, 4096u, 65536u}) {
    for (Time a : {msec(5), msec(50), sec(1)}) {
      for (auto type : {rms::BoundType::kBestEffort, rms::BoundType::kStatistical,
                        rms::BoundType::kDeterministic}) {
        rms::Params p;
        p.capacity = cap;
        p.max_message_size = 256;
        p.delay.type = type;
        p.delay.a = a;
        p.delay.b_per_byte = usec(10);
        p.bit_error_rate = 1.0;
        p.statistical.burstiness = 2.0;
        p.statistical.delay_probability = 0.9;
        const rms::Request req{p, p};
        auto result = world.fabric->negotiate(req);
        ASSERT_TRUE(result.ok()) << rms::to_string(p) << ": " << result.error().message;
        EXPECT_TRUE(rms::compatible(result.value(), req.acceptable))
            << "actual " << rms::to_string(result.value()) << " vs requested "
            << rms::to_string(p);
      }
    }
  }
}

// ------------------------------------------------------------- admission

rms::Params deterministic_params(std::uint64_t capacity, Time delay_a) {
  rms::Params p;
  p.capacity = capacity;
  p.max_message_size = 512;
  p.delay.type = rms::BoundType::kDeterministic;
  p.delay.a = delay_a;
  p.delay.b_per_byte = usec(2);
  p.bit_error_rate = 1.0;
  return p;
}

TEST(Admission, BestEffortNeverRejected) {
  AdmissionController ac({1'000'000, 1024});
  rms::Params p;
  p.delay.type = rms::BoundType::kBestEffort;
  p.capacity = 1 << 30;  // absurd demands
  p.max_message_size = 1 << 20;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(ac.admit(i, p).ok());
  }
  EXPECT_EQ(ac.reserved_bps(), 0.0);
}

TEST(Admission, DeterministicReservesAndExhausts) {
  // Each RMS commits C/D = 64KB / 100ms = 5.24 Mb/s; a 10 Mb/s segment at
  // 90% utilization fits exactly one.
  AdmissionController ac({10'000'000, 1 << 20});
  const auto p = deterministic_params(64 * 1024, msec(100));
  EXPECT_TRUE(ac.admit(1, p).ok());
  EXPECT_GT(ac.reserved_bps(), 0.0);
  const auto second = ac.admit(2, p);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, Errc::kAdmissionRejected);
  EXPECT_EQ(ac.rejected_count(), 1u);
}

TEST(Admission, ReleaseFreesResources) {
  AdmissionController ac({10'000'000, 1 << 20});
  const auto p = deterministic_params(64 * 1024, msec(100));
  ASSERT_TRUE(ac.admit(1, p).ok());
  ASSERT_FALSE(ac.admit(2, p).ok());
  ac.release(1);
  EXPECT_TRUE(ac.admit(2, p).ok());
}

TEST(Admission, BufferExhaustionRejects) {
  AdmissionController ac({1'000'000'000, 10'000});
  auto p = deterministic_params(8'000, sec(10));  // tiny bandwidth, big buffer
  EXPECT_TRUE(ac.admit(1, p).ok());
  EXPECT_FALSE(ac.admit(2, p).ok());  // 16'000 > 10'000 buffer
}

TEST(Admission, StatisticalUsesEffectiveBandwidth) {
  AdmissionController ac({10'000'000, 1 << 20});
  rms::Params p;
  p.capacity = 64 * 1024;
  p.max_message_size = 512;
  p.delay.type = rms::BoundType::kStatistical;
  p.delay.a = msec(100);
  p.bit_error_rate = 1.0;
  p.statistical.average_load_bps = 2'000'000;
  p.statistical.burstiness = 3.0;
  p.statistical.delay_probability = 0.5;  // eff = 2M * (1 + 2*0.5) = 4 Mb/s
  EXPECT_NEAR(AdmissionController::effective_bps(p), 4e6, 1.0);
  EXPECT_TRUE(ac.admit(1, p).ok());
  EXPECT_TRUE(ac.admit(2, p).ok());  // 8 Mb/s < 9 Mb/s limit
  EXPECT_FALSE(ac.admit(3, p).ok());
}

TEST(Admission, StatisticalAdmitsMoreThanDeterministic) {
  // The multiplexing gain the paper anticipates: statistical declarations
  // admit more streams than worst-case deterministic reservations.
  const std::uint64_t bps = 10'000'000;
  AdmissionController det({bps, 1 << 24});
  AdmissionController stat({bps, 1 << 24});

  const auto dp = deterministic_params(32 * 1024, msec(100));  // ~2.6 Mb/s each
  int det_admitted = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (det.admit(i, dp).ok()) ++det_admitted;
  }

  rms::Params sp = dp;
  sp.delay.type = rms::BoundType::kStatistical;
  sp.statistical.average_load_bps = 500'000;  // honest mean, bursty peak
  sp.statistical.burstiness = 3.0;
  sp.statistical.delay_probability = 0.95;
  int stat_admitted = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (stat.admit(i, sp).ok()) ++stat_admitted;
  }
  EXPECT_GT(stat_admitted, det_admitted);
}

TEST(NetRms, DeterministicAdmissionThroughFabric) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto p = deterministic_params(64 * 1024, msec(100));
  const rms::Request req{p, p};
  auto first = world.fabric->create(1, req, {2, 10});
  ASSERT_TRUE(first.ok()) << first.error().message;
  auto second = world.fabric->create(1, req, {2, 10});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, Errc::kAdmissionRejected);
  // Closing the first frees the reservation.
  first.value()->close();
  auto third = world.fabric->create(1, req, {2, 10});
  EXPECT_TRUE(third.ok()) << third.error().message;
}

// ------------------------------------------------------ delay & deadline

TEST(NetRms, DeliveryMeetsDeterministicBound) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto p = deterministic_params(32 * 1024, msec(50));
  auto rms = world.fabric->create(1, rms::Request{p, p}, {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  const auto& actual = rms.value()->params();

  std::vector<Time> delays;
  port.set_handler([&](rms::Message m) {
    delays.push_back(world.sim.now() - m.sent_at);
  });
  for (int i = 0; i < 50; ++i) {
    rms::Message m;
    m.data = patterned_bytes(400);
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    world.sim.run();
  }
  ASSERT_EQ(delays.size(), 50u);
  const Time bound = actual.delay.bound_for(400);
  for (Time d : delays) EXPECT_LE(d, bound);
}

TEST(NetRms, EstablishmentDelaysFirstMessage) {
  auto traits = net::ethernet_traits();
  traits.rms_setup_cost = msec(5);
  auto world = st_world(2, traits);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok());
  rms.value()->send(text_message("eager"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  // The message could not hit the wire before establishment finished.
  EXPECT_GE(port.last_delivery(), msec(5));
}

// ------------------------------------------------------ checksum elision

TEST(NetRms, SoftwareChecksumDropsCorruptMessages) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 5e-5;  // lossy medium, no hardware checksum
  auto world = st_world(2, traits, /*seed=*/9);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto req = loose_request(1 << 16, 1000);
  req.desired.bit_error_rate = 1e-9;    // wants integrity -> checksummed
  req.acceptable.bit_error_rate = 0.5;  // will settle for the raw rate
  auto rms = world.fabric->create(1, req, {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  const int sent = 200;
  for (int i = 0; i < sent; ++i) {
    // Paced 2 ms apart so the interface queue never overflows.
    world.sim.at(msec(2 * i), [&rms, i] {
      rms::Message m;
      m.data = patterned_bytes(1000, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();
  EXPECT_GT(world.fabric->stats().checksum_drops, 0u);
  EXPECT_EQ(world.fabric->stats().corrupt_delivered, 0u);
  EXPECT_LT(port.delivered(), static_cast<std::uint64_t>(sent));
  // Everything delivered was intact.
}

TEST(NetRms, TolerantClientGetsCorruptDataWithoutChecksumCost) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 5e-5;
  auto world = st_world(2, traits, /*seed=*/9);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto req = loose_request(1 << 16, 1000);
  req.acceptable.bit_error_rate = 1.0;  // voice-like: tolerate raw errors
  req.desired.bit_error_rate = 1.0;
  auto rms = world.fabric->create(1, req, {2, 10});
  ASSERT_TRUE(rms.ok());
  for (int i = 0; i < 200; ++i) {
    world.sim.at(msec(2 * i), [&rms, i] {
      rms::Message m;
      m.data = patterned_bytes(1000, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();
  // No checksum-based drops: corruption is delivered (and counted). A
  // corrupted *header* may still be unparseable — a protocol drop.
  EXPECT_GE(port.delivered() + world.fabric->stats().protocol_drops, 200u);
  EXPECT_GE(port.delivered(), 195u);
  EXPECT_GT(world.fabric->stats().corrupt_delivered, 0u);
  EXPECT_EQ(world.fabric->stats().checksum_drops, 0u);
}

// --------------------------------------------------------------- failure

TEST(NetRms, NetworkDownNotifiesClients) {
  auto world = st_world(2);
  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok());
  Error seen{Errc::kInternal, ""};
  rms.value()->on_failure([&](const Error& e) { seen = e; });

  world.network->set_down(true);
  EXPECT_TRUE(rms.value()->failed());
  EXPECT_EQ(seen.code, Errc::kRmsFailed);

  // Same notification path on the internet network.
  auto wan = wan_world({1}, {2});
  auto wrms = wan.fabric->create(1, loose_request(8192, 500, 1.0), {2, 10});
  ASSERT_TRUE(wrms.ok()) << wrms.error().message;
  bool notified = false;
  wrms.value()->on_failure([&](const Error& e) {
    notified = true;
    EXPECT_EQ(e.code, Errc::kRmsFailed);
  });
  wan.network->set_down(true);
  EXPECT_TRUE(notified);
  EXPECT_TRUE(wrms.value()->failed());
  const auto status = wrms.value()->send(text_message("too late"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::kRmsFailed);
}

TEST(NetRms, FailureCallbackMayDestroyItsRms) {
  // A client may free the failed RMS from inside its failure callback, as
  // an ST failover rebind does with its network RMS. The callback's
  // captures must outlive that: it reads one after the reset.
  auto world = st_world(2);
  auto created = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<rms::Rms> owner = std::move(created).value();
  int failures = 0;
  owner->on_failure([&owner, &failures](const Error&) {
    owner.reset();
    ++failures;
  });

  world.network->set_down(true);
  EXPECT_EQ(owner, nullptr);
  EXPECT_EQ(failures, 1);
}

/// Drives `world`'s first medium up→down, down again, up, and down: two
/// transitions, so on_down fires twice and a network RMS on its fabric
/// has failed.
template <class Net>
void expect_down_fires_once_per_transition(node::World<Net>& world) {
  int notified = 0;
  world.network->on_down([&] { ++notified; });
  auto rms = world.fabric->create(1, loose_request(8192, 500, 1.0), {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  world.network->set_down(true);
  world.network->set_down(true);
  world.network->set_down(false);
  world.network->set_down(true);
  EXPECT_EQ(notified, 2);
  EXPECT_TRUE(rms.value()->failed());
}

TEST(NetRms, DownNotifiesOncePerTransitionOnEveryMedium) {
  {
    SCOPED_TRACE("ethernet");
    auto world = st_world(2);
    expect_down_fires_once_per_transition(world);
  }
  {
    SCOPED_TRACE("token ring");
    node::World<net::TokenRingNetwork> world(
        {[](sim::Simulator& sim) {
          return std::make_unique<net::TokenRingNetwork>(sim, net::token_ring_traits(), 1);
        }},
        node::host_ids(2));
    expect_down_fires_once_per_transition(world);
  }
  {
    SCOPED_TRACE("dumbbell internet");
    auto world = wan_world({1}, {2});
    expect_down_fires_once_per_transition(world);
  }
}

TEST(NetRms, UdpDownNotifiesOncePerTransition) {
  if (!net::udp_available()) GTEST_SKIP() << "UDP sockets unavailable here";
  workload::UdpLoopbackWorld world;
  expect_down_fires_once_per_transition(world);
}

// -------------------------------------------------------------- dumbbell

TEST(NetRms, WorksAcrossInternet) {
  auto wan = wan_world({1}, {2});
  rms::Port port;
  wan.node(2).ports.bind(10, &port);
  auto rms = wan.fabric->create(1, loose_request(8192, 500, 1.0), {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  rms.value()->send(text_message("over the wide area"));
  wan.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  // WAN delay at least two access propagations + trunk propagation.
  EXPECT_GT(port.last_delay(), msec(20));
}

TEST(NetRms, GatewaySourceQuenchIsDiscarded) {
  // A gateway quench is network input, not an RMS message: RMS streams
  // protect gateway buffers with capacity (§4.4), so the source's fabric
  // discards the quench before protocol processing.
  auto traits = net::internet_traits();
  traits.buffer_bytes = 4 * 1024;
  auto wan = wan_world({1}, {2}, traits);
  wan.network->enable_source_quench(true);
  rms::Port port;
  wan.node(2).ports.bind(10, &port);
  auto rms = wan.fabric->create(1, loose_request(64 * 1024, 500, 1.0), {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  for (int i = 0; i < 64; ++i) {  // a burst far beyond the gateway buffer
    rms::Message m;
    m.data = patterned_bytes(500, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  }
  wan.sim.run();
  EXPECT_GT(wan.network->drop_stats().trunk_full, 0u);  // one quench each
  EXPECT_GT(port.delivered(), 0u);
  EXPECT_EQ(wan.fabric->stats().protocol_drops, 0u);
}

TEST(NetRms, ImpliedBandwidthIsAchievable) {
  // §2.2: sending a maximum-size message every D*M/C achieves ~C/D B/s
  // without violating capacity. Verify the schedule meets its bounds.
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  rms::Params p;
  p.capacity = 4096;
  p.max_message_size = 1024;
  p.delay.type = rms::BoundType::kDeterministic;
  p.delay.a = msec(20);
  p.delay.b_per_byte = usec(1);
  p.bit_error_rate = 1.0;
  auto rms = world.fabric->create(1, rms::Request{p, p}, {2, 10});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  const auto& actual = rms.value()->params();

  const Time d = actual.delay.bound_for(actual.max_message_size);
  const auto interval = d * static_cast<Time>(actual.max_message_size) /
                        static_cast<Time>(actual.capacity);
  int to_send = 40;
  std::function<void()> tick = [&] {
    if (to_send-- <= 0) return;
    rms::Message m;
    m.data = patterned_bytes(actual.max_message_size);
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    world.sim.after(interval, tick);
  };
  world.sim.after(world.network->traits().rms_setup_cost, tick);
  world.sim.run();

  EXPECT_EQ(port.delivered(), 40u);
  const double elapsed = to_seconds(port.last_delivery());
  const double rate = static_cast<double>(port.bytes_delivered()) / elapsed;
  const double implied = rms::implied_bandwidth_bytes_per_sec(actual);
  // Actual throughput should be at least the implied bandwidth (§2.2 says
  // the real maximum may be higher when actual delays beat the bound).
  EXPECT_GE(rate, implied * 0.9);
}

}  // namespace
}  // namespace dash::netrms

// Accounting tests (paper §2.4/§5): setup + parameter-scaled connect time
// + per-byte charges, owned by the creating host.
namespace dash::netrms {
namespace {

using dash::testing::st_world;
using dash::testing::loose_request;

TEST(Accounting, SetupBytesAndConnectTime) {
  Accounting accounting;  // outlives the world: teardown bills closes
  auto world = st_world(2);
  world.fabric->set_accounting(&accounting);

  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto stream = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(stream.ok());
  const std::uint64_t id =
      static_cast<NetworkRms*>(stream.value().get())->stream_id();

  // Setup charged immediately; no bytes yet.
  auto inv = accounting.invoice(id, world.sim.now());
  EXPECT_EQ(inv.owner, 1u);
  EXPECT_DOUBLE_EQ(inv.setup, accounting.tariff().setup);
  EXPECT_DOUBLE_EQ(inv.bytes, 0.0);

  // Send 10 KB (20 x 512 B); the byte charge follows the tariff.
  for (int i = 0; i < 20; ++i) {
    rms::Message m;
    m.data = patterned_bytes(512, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  }
  world.sim.run();
  inv = accounting.invoice(id, world.sim.now());
  EXPECT_NEAR(inv.bytes, 10.0 * accounting.tariff().per_kilobyte, 1e-9);

  // Connect time accrues while open and freezes at close.
  world.sim.run_for(sec(10));
  const double open_connect = accounting.invoice(id, world.sim.now()).connect;
  EXPECT_GT(open_connect, 0.0);
  stream.value()->close();
  world.sim.run_for(sec(10));
  EXPECT_NEAR(accounting.invoice(id, world.sim.now()).connect, open_connect,
              open_connect * 0.01);
}

TEST(Accounting, ReservedStreamsCostMoreThanBestEffort) {
  Accounting accounting;  // outlives the world: teardown bills closes
  auto world = st_world(2);
  world.fabric->set_accounting(&accounting);
  rms::Port port;
  world.node(2).ports.bind(10, &port);

  auto best_effort = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(best_effort.ok());

  rms::Params det;
  det.capacity = 32 * 1024;
  det.max_message_size = 512;
  det.delay.type = rms::BoundType::kDeterministic;
  det.delay.a = msec(100);
  det.delay.b_per_byte = usec(2);
  det.bit_error_rate = 1.0;
  auto deterministic = world.fabric->create(1, {det, det}, {2, 10});
  ASSERT_TRUE(deterministic.ok()) << deterministic.error().message;

  world.sim.run_until(sec(60));
  const auto be_id =
      static_cast<NetworkRms*>(best_effort.value().get())->stream_id();
  const auto det_id =
      static_cast<NetworkRms*>(deterministic.value().get())->stream_id();
  // §5: "a charge determined by the RMS parameters" — reserved bandwidth
  // costs while it is held, sent bytes or not.
  EXPECT_GT(accounting.invoice(det_id, world.sim.now()).connect,
            10.0 * accounting.invoice(be_id, world.sim.now()).connect);
}

TEST(Accounting, BillAggregatesPerOwner) {
  Accounting accounting;  // outlives the world: teardown bills closes
  auto world = st_world(3);
  world.fabric->set_accounting(&accounting);
  rms::Port port;
  world.node(3).ports.bind(10, &port);

  auto a1 = world.fabric->create(1, loose_request(), {3, 10});
  auto a2 = world.fabric->create(1, loose_request(), {3, 10});
  auto b1 = world.fabric->create(2, loose_request(), {3, 10});
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b1.ok());
  world.sim.run_until(sec(5));

  const double bill1 = accounting.bill(1, world.sim.now());
  const double bill2 = accounting.bill(2, world.sim.now());
  EXPECT_GT(bill1, bill2);                       // host 1 owns two streams
  EXPECT_GE(bill2, accounting.tariff().setup);   // host 2 at least paid setup
  EXPECT_DOUBLE_EQ(accounting.bill(99, world.sim.now()), 0.0);
}

TEST(Accounting, StLayerStreamsAreBilledToTheirHost) {
  // The ST's own network RMS (control + data channels) are created by the
  // initiating host and show up on its bill — accounting reaches through
  // the whole stack.
  Accounting accounting;  // outlives the world: teardown bills closes
  auto world = dash::testing::st_world(2);
  world.fabric->set_accounting(&accounting);

  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream = world.st(1).create(dash::testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  rms::Message m;
  m.data = patterned_bytes(256, 1);
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();

  // Host 1 paid for its control + data channels; host 2 for its reverse
  // control channel.
  EXPECT_GE(accounting.bill(1, world.sim.now()), 2 * accounting.tariff().setup);
  EXPECT_GE(accounting.bill(2, world.sim.now()), accounting.tariff().setup);
}

}  // namespace
}  // namespace dash::netrms

// The §4.3.1 refinement at the network-RMS level: "if message A is sent
// after message B, and has a transmission deadline greater than or equal
// to that of B, then B is delivered first" — and, conversely, a
// later-sent message with a *smaller* deadline MAY legitimately overtake.
namespace dash::netrms {
namespace {

using dash::testing::st_world;
using dash::testing::loose_request;

TEST(NetRmsRefinement, EqualOrLaterDeadlinesNeverOvertake) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok());

  std::vector<int> order;
  port.set_handler([&](rms::Message m) {
    order.push_back(static_cast<int>(static_cast<std::uint8_t>(m.data[0])));
  });
  // Monotone non-decreasing deadlines: strict FIFO expected.
  world.sim.run_until(msec(10));  // past establishment
  for (int i = 0; i < 10; ++i) {
    rms::Message m;
    m.data = Bytes{static_cast<std::byte>(i)};
    ASSERT_TRUE(rms.value()->send(std::move(m), world.sim.now() + msec(5 + i)).ok());
  }
  world.sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(world.fabric->stats().out_of_order, 0u);
}

TEST(NetRmsRefinement, TighterDeadlineMayOvertakeQueuedLazyMessage) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(10, &port);
  auto rms = world.fabric->create(1, loose_request(64 * 1024, 1400), {2, 10});
  ASSERT_TRUE(rms.ok());

  std::vector<char> order;
  port.set_handler([&](rms::Message m) {
    order.push_back(static_cast<char>(m.data[0]));
  });
  world.sim.run_until(msec(10));

  // Fill the interface with enough lazy traffic that later sends queue.
  for (int i = 0; i < 8; ++i) {
    rms::Message filler;
    Bytes fill = patterned_bytes(1400, static_cast<std::uint64_t>(i));
    fill[0] = static_cast<std::byte>('F');
    filler.data = std::move(fill);
    ASSERT_TRUE(rms.value()->send(std::move(filler), world.sim.now() + msec(100)).ok());
  }
  // Lazy message B, then urgent message A sent after it.
  rms::Message b;
  b.data = Bytes{static_cast<std::byte>('B')};
  ASSERT_TRUE(rms.value()->send(std::move(b), world.sim.now() + msec(200)).ok());
  rms::Message a;
  a.data = Bytes{static_cast<std::byte>('A')};
  ASSERT_TRUE(rms.value()->send(std::move(a), world.sim.now() + msec(1)).ok());

  world.sim.run();
  ASSERT_EQ(order.size(), 10u);
  // A (sent last, tightest deadline) overtook B and the fillers — the
  // refinement permits exactly this, and the provider counted it.
  const auto pos_a = std::find(order.begin(), order.end(), 'A') - order.begin();
  const auto pos_b = std::find(order.begin(), order.end(), 'B') - order.begin();
  EXPECT_LT(pos_a, pos_b);
  EXPECT_GT(world.fabric->stats().out_of_order, 0u);
}

TEST(NetRms, ReadyAtReflectsSetupCost) {
  auto traits = net::ethernet_traits();
  traits.rms_setup_cost = msec(7);
  auto world = st_world(2, traits);
  auto rms = world.fabric->create(1, loose_request(), {2, 10});
  ASSERT_TRUE(rms.ok());
  auto* net_rms = static_cast<NetworkRms*>(rms.value().get());
  EXPECT_EQ(net_rms->ready_at(), world.sim.now() + msec(7));
}

}  // namespace
}  // namespace dash::netrms

// Admission headroom accessor (capacity planning surface).
namespace dash::netrms {
namespace {

TEST(Admission, HeadroomShrinksWithGrants) {
  AdmissionController ac({10'000'000, 1 << 20});
  const double before = ac.bps_headroom();
  EXPECT_NEAR(before, 9e6, 1.0);
  rms::Params p;
  p.capacity = 16 * 1024;
  p.max_message_size = 512;
  p.delay.type = rms::BoundType::kDeterministic;
  p.delay.a = msec(100);
  p.bit_error_rate = 1.0;
  ASSERT_TRUE(ac.admit(1, p).ok());
  EXPECT_LT(ac.bps_headroom(), before);
  ac.release(1);
  EXPECT_NEAR(ac.bps_headroom(), before, 1.0);
}

}  // namespace
}  // namespace dash::netrms
