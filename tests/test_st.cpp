// Tests for the subtransport layer (paper §3.2, §4.2, §4.3): control
// channel establishment with authentication (and its trusted-network
// elision), multiplexing + piggybacking, caching, fragmentation and
// reassembly, security elision, fast acknowledgements, and failure
// notification.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "st/st.h"
#include "test_helpers.h"
#include "transport/stream.h"
#include "util/checksum.h"
#include "util/serialize.h"

namespace dash::st {
namespace {

using dash::testing::st_world;

/// For the multi-network hosts below: these tests pin the ST's own network
/// choice, which a path manager would otherwise weigh in on.
const node::NodeConfig kNoPathManager{.path = {.enabled = false}};

rms::Request st_request(std::uint64_t capacity = 32 * 1024,
                        std::uint64_t mms = 8 * 1024) {
  rms::Params desired;
  desired.capacity = capacity;
  desired.max_message_size = mms;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(20);
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = usec(500);
  acceptable.bit_error_rate = 1.0;
  acceptable.capacity = 1;
  acceptable.max_message_size = 1;
  return rms::Request{desired, acceptable};
}

rms::Message text(std::string_view s) {
  rms::Message m;
  m.data = to_bytes(s);
  return m;
}

/// Raw kFastAck bytes: `count` in the count field, then `words` as u64s
/// and `trailing` zero bytes — well-formed only when the words are
/// exactly `count` (st id, ack id) pairs and nothing trails.
Bytes fast_ack_wire(std::uint8_t count, const std::vector<std::uint64_t>& words,
                    std::size_t trailing = 0) {
  Bytes b;
  Writer w(b);
  w.u8(static_cast<std::uint8_t>(ControlType::kFastAck));
  w.u8(count);
  for (std::uint64_t v : words) w.u64(v);
  for (std::size_t i = 0; i < trailing; ++i) w.u8(0);
  return b;
}

// ---------------------------------------------------------- establishment

TEST(St, CreateAndDeliver) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);

  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  ASSERT_TRUE(rms.value()->send(text("through the subtransport")).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  auto m = port.poll();
  EXPECT_EQ(dash::to_string(m->data), "through the subtransport");
  EXPECT_EQ(m->target, (rms::Label{2, 50}));
  EXPECT_EQ(m->source.host, 1u);
}

TEST(St, EstablishmentRunsAuthHandshake) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  ASSERT_NE(st_rms, nullptr);
  EXPECT_FALSE(st_rms->established());
  world.sim.run();
  EXPECT_TRUE(st_rms->established());
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 1u);
  EXPECT_EQ(world.st(1).stats().auth_elided, 0u);
  EXPECT_GT(world.st(1).stats().control_messages, 0u);
  EXPECT_GT(world.st(2).stats().control_messages, 0u);  // replies flowed back
}

TEST(St, ControlRepliesCancelRetryTimers) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  ASSERT_NE(st_rms, nullptr);
  while (!st_rms->established() && world.sim.step()) {
  }
  ASSERT_TRUE(st_rms->established());
  // The auth and create requests each armed a retransmit timer; their
  // replies cancelled them, so no dead timer lingers in the pending set
  // waiting to fire as a no-op.
  EXPECT_GE(world.sim.stats().timers_cancelled, 2u);
  EXPECT_EQ(world.st(1).stats().control_retries, 0u);
  EXPECT_LT(world.sim.pending(), 8u);
}

TEST(St, SecondStreamReusesAuthentication) {
  auto world = st_world(2);
  rms::Port p1, p2;
  world.node(2).ports.bind(50, &p1);
  world.node(2).ports.bind(51, &p2);

  auto a = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(a.ok());
  world.sim.run();
  auto b = world.st(1).create(st_request(), {2, 51});
  ASSERT_TRUE(b.ok());
  b.value()->send(text("second"));
  world.sim.run();

  EXPECT_EQ(world.st(1).stats().auth_handshakes, 1u);  // once per peer
  EXPECT_EQ(p2.delivered(), 1u);
}

TEST(St, TrustedNetworkElidesAuthentication) {
  auto traits = net::ethernet_traits();
  traits.trusted = true;
  auto world = st_world(2, traits);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  rms.value()->send(text("trusted"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().auth_handshakes, 0u);
  EXPECT_EQ(world.st(1).stats().auth_elided, 1u);
}

TEST(St, MessagesQueuedUntilEstablished) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  // Send a burst before any control exchange could complete.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rms.value()->send(text("m" + std::to_string(i))).ok());
  }
  world.sim.run();
  ASSERT_EQ(port.delivered(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dash::to_string(port.poll()->data), "m" + std::to_string(i));
  }
}

TEST(St, NoRouteRejectedSynchronously) {
  auto world = st_world(2);
  auto rms = world.st(1).create(st_request(), {99, 50});
  ASSERT_FALSE(rms.ok());
  EXPECT_EQ(rms.error().code, Errc::kNoRoute);
}

TEST(St, ImpossibleDelayRejected) {
  auto world = st_world(2);
  auto req = st_request();
  req.acceptable.delay.a = usec(1);  // smaller than the ST processing budget
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_FALSE(rms.ok());
  EXPECT_EQ(rms.error().code, Errc::kIncompatibleParams);
}

// --------------------------------------------------------------- ordering

TEST(St, InOrderDeliveryUnderLoad) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());

  std::vector<int> received;
  port.set_handler([&](rms::Message m) {
    received.push_back(std::stoi(dash::to_string(m.data)));
  });
  for (int i = 0; i < 100; ++i) {
    world.sim.at(usec(100 * i), [&rms, i] {
      ASSERT_TRUE(rms.value()->send(text(std::to_string(i))).ok());
    });
  }
  world.sim.run();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

// ------------------------------------------------------------ piggybacking

TEST(St, PiggybackingCombinesSmallMessages) {
  st::StConfig config;
  config.piggyback_window = msec(5);
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(32 * 1024, 64), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();  // establish first

  // A burst of small messages inside one piggyback window.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rms.value()->send(text("small-" + std::to_string(i))).ok());
  }
  world.sim.run();

  EXPECT_EQ(port.delivered(), 10u);
  EXPECT_GT(world.st(1).stats().piggybacked, 0u);
  EXPECT_LT(world.st(1).stats().network_messages, 10u);
}

TEST(St, PiggybackingDisabledSendsOnePacketEach) {
  st::StConfig config;
  config.piggyback_window = 0;
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(32 * 1024, 64), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rms.value()->send(text("small-" + std::to_string(i))).ok());
  }
  world.sim.run();

  EXPECT_EQ(port.delivered(), 10u);
  EXPECT_EQ(world.st(1).stats().piggybacked, 0u);
  EXPECT_EQ(world.st(1).stats().network_messages, 10u);
}

TEST(St, PiggybackingAcrossStreams) {
  st::StConfig config;
  config.piggyback_window = msec(5);
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  rms::Port p1, p2;
  world.node(2).ports.bind(50, &p1);
  world.node(2).ports.bind(51, &p2);
  auto a = world.st(1).create(st_request(8 * 1024, 64), {2, 50});
  auto b = world.st(1).create(st_request(8 * 1024, 64), {2, 51});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  world.sim.run();
  // Both streams multiplexed on one network RMS; alternating messages
  // should share packets.
  EXPECT_EQ(world.st(1).stats().mux_joins, 1u);
  const auto packets_before = world.st(1).stats().network_messages;
  for (int i = 0; i < 5; ++i) {
    a.value()->send(text("a" + std::to_string(i)));
    b.value()->send(text("b" + std::to_string(i)));
  }
  world.sim.run();
  EXPECT_EQ(p1.delivered(), 5u);
  EXPECT_EQ(p2.delivered(), 5u);
  EXPECT_LT(world.st(1).stats().network_messages - packets_before, 10u);
}

TEST(St, UrgentMessageNotDelayedPastItsDeadline) {
  // A queued message must leave by its transmission deadline even if the
  // window would allow more piggybacking.
  st::StConfig config;
  config.piggyback_window = msec(10);
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request(32 * 1024, 64);
  req.desired.delay.a = msec(15);
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  const Time t0 = world.sim.now();
  rms.value()->send(text("lone message"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  // Delivered within the ST bound even though nothing piggybacked onto it.
  EXPECT_LE(port.last_delivery() - t0,
            rms.value()->params().delay.bound_for(12));
}

/// Two streams multiplexed on one channel with a `window`: `a` sends at t0
/// (the idle channel sends it at once) and at t0 + 1 ms (the busy channel
/// queues it); `b` sends at t0 + 2 ms, with a transmission deadline of now
/// when `client_deadline` is set. Records when the last message of each
/// arrived, and the packets and piggybacked components the sender's ST
/// counted from t0.
struct PiggybackWait {
  Time t0 = 0;
  Time a_delivered = -1;  ///< when `a`'s queued message arrived
  Time b_delivered = -1;
  std::uint64_t packets = 0;
  std::uint64_t piggybacked = 0;
};

PiggybackWait run_piggyback_wait(bool client_deadline, Time window) {
  st::StConfig config;
  config.piggyback_window = window;
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  rms::Port pa, pb;
  world.node(2).ports.bind(50, &pa);
  world.node(2).ports.bind(51, &pb);
  auto a = world.st(1).create(st_request(8 * 1024, 64), {2, 50});
  auto b = world.st(1).create(st_request(8 * 1024, 64), {2, 51});
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  world.sim.run();
  EXPECT_EQ(world.st(1).stats().mux_joins, 1u);

  PiggybackWait out;
  out.t0 = world.sim.now();
  const auto before = world.st(1).stats();
  (void)a.value()->send(text("a0"));
  world.sim.at(out.t0 + msec(1), [&] { (void)a.value()->send(text("a1")); });
  world.sim.at(out.t0 + msec(2), [&] {
    (void)b.value()->send(text("b0"), client_deadline ? world.sim.now() : kTimeNever);
  });
  world.sim.run();
  EXPECT_EQ(pa.delivered(), 2u);
  EXPECT_EQ(pb.delivered(), 1u);
  out.a_delivered = pa.last_delivery();
  out.b_delivered = pb.last_delivery();
  out.packets = world.st(1).stats().network_messages - before.network_messages;
  out.piggybacked = world.st(1).stats().piggybacked - before.piggybacked;
  return out;
}

TEST(St, ClientTransmissionDeadlineEndsThePiggybackWait) {
  // §4.3.1: a transmission deadline passed to send caps the message's wait
  // for company. With one of now, `b0` leaves as soon as the CPU stages
  // have run, and takes `a1`, already queued, along in its packet.
  const Time window = msec(5);
  const PiggybackWait urgent = run_piggyback_wait(true, window);
  EXPECT_EQ(urgent.packets, 2u);
  EXPECT_EQ(urgent.piggybacked, 1u);
  EXPECT_EQ(urgent.a_delivered, urgent.b_delivered);  // one packet
  EXPECT_LT(urgent.b_delivered - (urgent.t0 + msec(2)), msec(1));

  // Without a deadline the busy channel still holds both for the window
  // `a1` opened.
  const PiggybackWait lazy = run_piggyback_wait(false, window);
  EXPECT_EQ(lazy.packets, 2u);
  EXPECT_EQ(lazy.piggybacked, 1u);
  EXPECT_EQ(lazy.a_delivered, lazy.b_delivered);
  EXPECT_GE(lazy.a_delivered, lazy.t0 + msec(1) + window);
}

/// A 10 ms and a 500 ms best-effort stream from host 1 to host 2,
/// multiplexed on one channel (default 2 ms window), with a wiretap on the
/// Ethernet.
struct UrgentAndLazy {
  node::World<net::EthernetNetwork> world = st_world(2);
  net::Eavesdropper tap{*world.network};
  rms::Port urgent_port;
  rms::Port lazy_port;
  std::unique_ptr<rms::Rms> urgent_rms;
  std::unique_ptr<rms::Rms> lazy_rms;

  UrgentAndLazy() {
    world.node(2).ports.bind(50, &urgent_port);
    world.node(2).ports.bind(51, &lazy_port);
    auto urgent_req = st_request(8 * 1024, 64);
    urgent_req.desired.delay.a = msec(10);
    auto lazy_req = st_request(8 * 1024, 64);
    lazy_req.desired.delay.a = msec(500);
    urgent_rms = std::move(world.st(1).create(urgent_req, {2, 50})).value();
    lazy_rms = std::move(world.st(1).create(lazy_req, {2, 51})).value();
    world.sim.run();
    EXPECT_EQ(world.st(1).stats().mux_joins, 1u);
  }
  StRms& urgent() { return dynamic_cast<StRms&>(*urgent_rms); }
  StRms& lazy() { return dynamic_cast<StRms&>(*lazy_rms); }

  /// Host 1's data packets carrying urgent data: how many, how many of
  /// them carry lazy data too, and how many leave with a deadline past the
  /// urgent stream's bound of an urgent component's send time.
  struct Scan {
    int carrying = 0;
    int shared = 0;
    int late = 0;
  };
  Scan scan() {
    Scan out;
    for (const net::Packet& p : tap.captured()) {
      if (p.src != 1 || p.size() <= netrms::kHeaderBytes) continue;
      Reader r(p.payload.view().subspan(netrms::kHeaderBytes));
      auto tag = r.u8();
      auto count = r.u8();
      if (!tag || *tag != kStDataTag || !count) continue;  // a control message
      bool carries_lazy = false;
      Time limit = kTimeNever;
      for (int i = 0; i < *count; ++i) {
        auto c = read_component(r);
        EXPECT_TRUE(c.has_value());
        if (!c) break;
        if (c->stream_id == lazy().id()) carries_lazy = true;
        if (c->stream_id == urgent().id()) {
          limit = std::min(limit,
                           c->sent_at + urgent().params().delay.bound_for(c->payload.size()));
        }
      }
      if (limit == kTimeNever) continue;
      ++out.carrying;
      if (carries_lazy) ++out.shared;
      if (p.deadline > limit) ++out.late;
    }
    return out;
  }
};

TEST(St, LazyCompanionDoesNotRatchetAnUrgentStream) {
  // The two streams share one packet. §4.3.1's minimum transmission
  // deadline keeps each stream's packet deadlines monotone, but it must not
  // hand the lazy stream's deadline to the urgent one: every packet carrying
  // urgent data, the shared one and the ten after it, leaves with a
  // deadline inside the urgent stream's bound of its send time.
  UrgentAndLazy w;
  // u0 leaves alone on the idle channel; l0 and u1 then wait together for
  // the window; u2..u11 follow alone, 10 ms apart.
  const Time t0 = w.world.sim.now();
  (void)w.urgent().send(text("u0"));
  w.world.sim.at(t0 + usec(500), [&] { (void)w.lazy().send(text("l0")); });
  w.world.sim.at(t0 + usec(600), [&] { (void)w.urgent().send(text("u1")); });
  for (int i = 1; i <= 10; ++i) {
    w.world.sim.at(t0 + msec(10 * i), [&] { (void)w.urgent().send(text("u")); });
  }
  w.world.sim.run();
  ASSERT_EQ(w.urgent_port.delivered(), 12u);
  ASSERT_EQ(w.lazy_port.delivered(), 1u);
  const UrgentAndLazy::Scan scan = w.scan();
  EXPECT_EQ(scan.carrying, 12);
  EXPECT_EQ(scan.shared, 1);
  EXPECT_EQ(scan.late, 0);
}

TEST(St, PacketKeepsItsMostUrgentComponentsDeadline) {
  // The lazy stream's previous packet left alone at its lazy deadline, so
  // a packet carrying its next component must not leave earlier (§4.3.1).
  // Sharing that packet would hand the lazy deadline to the urgent
  // component and, through the urgent stream's own clamp, to its later
  // packets; the queued lazy component leaves first instead.
  UrgentAndLazy w;
  const Time t0 = w.world.sim.now();
  (void)w.lazy().send(text("l0"));  // the idle channel sends it at once
  w.world.sim.at(t0 + usec(500), [&] { (void)w.lazy().send(text("l1")); });
  w.world.sim.at(t0 + usec(600), [&] { (void)w.urgent().send(text("u1")); });
  for (int i = 1; i <= 10; ++i) {
    w.world.sim.at(t0 + msec(10 * i), [&] { (void)w.urgent().send(text("u")); });
  }
  w.world.sim.run();
  ASSERT_EQ(w.urgent_port.delivered(), 11u);
  ASSERT_EQ(w.lazy_port.delivered(), 2u);
  const UrgentAndLazy::Scan scan = w.scan();
  EXPECT_EQ(scan.carrying, 11);
  EXPECT_EQ(scan.shared, 0);
  EXPECT_EQ(scan.late, 0);
}

// ----------------------------------------------------------- fragmentation

TEST(St, LargeMessageFragmentsAndReassembles) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(64 * 1024, 16 * 1024), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  const Bytes payload = patterned_bytes(10'000, 7);
  rms::Message m;
  m.data = payload;
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  EXPECT_EQ(port.poll()->data, payload);  // byte-identical after reassembly
  EXPECT_GT(world.st(1).stats().fragments_sent, 1u);
  EXPECT_EQ(world.st(2).stats().reassembled, 1u);
}

TEST(St, FragmentedAndSmallMessagesInterleave) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(64 * 1024, 16 * 1024), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  std::vector<std::size_t> sizes;
  port.set_handler([&](rms::Message m) { sizes.push_back(m.size()); });
  rms.value()->send(text("tiny1"));
  rms::Message big;
  big.data = patterned_bytes(5000, 9);
  rms.value()->send(std::move(big));
  rms.value()->send(text("tiny2"));
  world.sim.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[1], 5000u);
  EXPECT_EQ(sizes[2], 5u);  // order preserved across fragmentation
}

TEST(St, LostFragmentDiscardsPartialMessage) {
  // On a lossy medium with per-fragment checksums, some fragments vanish;
  // the ST must discard partial messages and deliver only complete ones.
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 2e-5;  // ~20%+ per full frame
  auto world = st_world(2, traits, /*seed=*/11);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request(64 * 1024, 16 * 1024);
  req.desired.bit_error_rate = 1e-12;  // ask for integrity -> checksummed
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  const int sent = 40;
  std::set<std::size_t> delivered_sizes;
  port.set_handler([&](rms::Message m) {
    delivered_sizes.insert(m.size());
    EXPECT_EQ(m.size(), 6000u);  // never a partial message
  });
  for (int i = 0; i < sent; ++i) {
    world.sim.at(msec(20 * i), [&rms, i] {
      rms::Message m;
      m.data = patterned_bytes(6000, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();

  EXPECT_LT(port.delivered(), static_cast<std::uint64_t>(sent));  // losses happened
  EXPECT_GT(port.delivered(), 0u);
  EXPECT_GT(world.st(2).stats().partials_discarded, 0u);
}

// ----------------------------------------------------------------- caching

TEST(St, ClosedStreamLeavesChannelCached) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();
  EXPECT_EQ(world.st(1).active_channels(), 1u);
  rms.value()->close();
  EXPECT_EQ(world.st(1).active_channels(), 0u);
  EXPECT_EQ(world.st(1).cached_channels(), 1u);
}

TEST(St, CacheHitAvoidsNetworkRmsCreation) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto first = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(first.ok());
  world.sim.run();
  first.value()->close();

  auto second = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(second.ok());
  second.value()->send(text("warm"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().cache_hits, 1u);
  EXPECT_EQ(world.st(1).stats().net_rms_created, 1u);  // one data channel, reused
}

TEST(St, CachedChannelExpiresAfterIdleTimeout) {
  st::StConfig config;
  config.cache_idle_timeout = msec(100);
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();
  rms.value()->close();
  EXPECT_EQ(world.st(1).cached_channels(), 1u);
  world.sim.run_for(msec(200));
  EXPECT_EQ(world.st(1).cached_channels(), 0u);

  // Re-creating now builds a fresh data network RMS.
  auto again = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(world.st(1).stats().cache_hits, 0u);
  EXPECT_EQ(world.st(1).stats().net_rms_created, 2u);  // fresh data channel
}

TEST(St, CachingDisabledClosesChannelImmediately) {
  st::StConfig config;
  config.cache_idle_timeout = 0;
  auto world = st_world(2, net::ethernet_traits(), 42, config);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();
  rms.value()->close();
  EXPECT_EQ(world.st(1).cached_channels(), 0u);
  EXPECT_EQ(world.st(1).active_channels(), 0u);
}

// ---------------------------------------------------------------- security

TEST(St, PrivacyEncryptsOnUntrustedNetwork) {
  auto world = st_world(2);
  net::Eavesdropper eve(*world.network);
  rms::Port port;
  world.node(2).ports.bind(50, &port);

  auto req = st_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_TRUE(st_rms->encrypts());
  EXPECT_TRUE(rms.value()->params().quality.privacy);

  rms.value()->send(text("the secret launch codes"));
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  EXPECT_EQ(dash::to_string(port.poll()->data), "the secret launch codes");
  EXPECT_FALSE(eve.saw_plaintext(to_bytes("secret launch")));
  EXPECT_GT(world.st(1).stats().bytes_encrypted, 0u);
}

TEST(St, PrivacyElidedOnTrustedNetwork) {
  auto traits = net::ethernet_traits();
  traits.trusted = true;
  auto world = st_world(2, traits);
  net::Eavesdropper eve(*world.network);
  rms::Port port;
  world.node(2).ports.bind(50, &port);

  auto req = st_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_FALSE(st_rms->encrypts());  // §2.5 case 3: no encryption needed
  EXPECT_TRUE(rms.value()->params().quality.privacy);

  rms.value()->send(text("visible on a trusted wire"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_EQ(world.st(1).stats().bytes_encrypted, 0u);
  // The frame is on the wire in the clear — fine, the network is trusted.
  EXPECT_TRUE(eve.saw_plaintext(to_bytes("trusted wire")));
}

TEST(St, PrivacyElidedWithLinkEncryptionHardware) {
  auto traits = net::ethernet_traits();
  traits.link_encryption = true;
  auto world = st_world(2, traits);
  auto req = st_request();
  req.desired.quality.privacy = true;
  req.acceptable.quality.privacy = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_FALSE(st_rms->encrypts());  // §2.5 case 2: hardware does it
}

TEST(St, AuthenticationMacsOnUntrustedNetwork) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request();
  req.desired.quality.authenticated = true;
  req.acceptable.quality.authenticated = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  EXPECT_TRUE(st_rms->macs());
  rms.value()->send(text("authentic"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_GT(world.st(1).stats().bytes_macced, 0u);
  EXPECT_EQ(world.st(2).stats().auth_drops, 0u);
}

TEST(St, CorruptedMacMessageDropped) {
  // Authenticated stream on a lossy medium that the client *claims* to
  // tolerate errors on (so no checksum anywhere): corruption must be
  // caught by the MAC instead of being delivered.
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 3e-5;
  auto world = st_world(2, traits, /*seed=*/13);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request(32 * 1024, 1000);
  req.desired.quality.authenticated = true;
  req.acceptable.quality.authenticated = true;
  req.desired.bit_error_rate = 1.0;  // elide checksumming
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  const int sent = 100;
  for (int i = 0; i < sent; ++i) {
    world.sim.at(msec(5 * i), [&rms, i] {
      rms::Message m;
      m.data = patterned_bytes(900, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();
  EXPECT_GT(world.st(2).stats().auth_drops, 0u);
  EXPECT_LT(port.delivered(), static_cast<std::uint64_t>(sent));
}

TEST(St, ForgedControlFromThirdHostCannotDeleteStream) {
  // Host 3 guesses the netrms id of host 1's control channel to host 2 and
  // forges a kDelete for host 1's stream under each of ids 1..32. The
  // fabric must drop every forgery, since host 3 is not those streams'
  // source, so host 2 keeps its demux entry and the next message arrives.
  auto world = st_world(3);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request();
  req.desired.quality.reliable = true;
  req.desired.quality.authenticated = true;
  req.acceptable.quality.authenticated = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  ASSERT_TRUE(st_rms->macs());
  ASSERT_TRUE(rms.value()->send(text("before")).ok());
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  const std::uint64_t drops_before = world.fabric->stats().protocol_drops;

  Bytes forged_delete;
  Writer cw(forged_delete);
  cw.u8(static_cast<std::uint8_t>(ControlType::kDelete));
  cw.u64(st_rms->id());
  for (std::uint64_t netrms_id = 1; netrms_id <= 32; ++netrms_id) {
    Bytes wire;
    Writer w(wire);
    w.u8(1);  // netrms data packet
    w.u64(netrms_id);
    w.u64(1);  // sequence
    w.i64(world.sim.now());
    w.u32(crc32(forged_delete));
    w.bytes(forged_delete);
    net::Packet p;
    p.src = 3;
    p.dst = 2;
    p.stream = netrms_id;
    p.payload = std::move(wire);
    world.network->send(std::move(p));
  }
  world.sim.run();

  ASSERT_TRUE(rms.value()->send(text("after")).ok());
  world.sim.run();
  EXPECT_EQ(port.delivered(), 2u);
  EXPECT_EQ(world.st(2).stats().unknown_dropped, 0u);
  EXPECT_EQ(world.fabric->stats().protocol_drops - drops_before, 32u);
}

TEST(St, ThirdPartyCannotInjectIntoForeignStream) {
  auto world = st_world(3);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  rms.value()->send(text("legit"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);

  // Host 3 creates its own stream claiming the same ST RMS id and port;
  // the demux key includes the source host, so nothing crosses over.
  auto forged = world.st(3).create(st_request(), {2, 50});
  ASSERT_TRUE(forged.ok());
  forged.value()->send(text("forged"));
  world.sim.run();
  // Both delivered, but with distinct, truthful source labels.
  ASSERT_EQ(port.delivered(), 2u);
  auto m1 = port.poll();
  auto m2 = port.poll();
  EXPECT_EQ(m1->source.host, 1u);
  EXPECT_EQ(m2->source.host, 3u);
}

// --------------------------------------------------------------- fast acks

TEST(St, FastAcknowledgement) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());

  std::vector<std::uint64_t> acks;
  st_rms->on_fast_ack([&](std::uint64_t id) { acks.push_back(id); });
  ASSERT_TRUE(st_rms->send_acked(text("ack me"), 42).ok());
  world.sim.run();

  EXPECT_EQ(port.delivered(), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], 42u);
  EXPECT_EQ(world.st(2).stats().fast_acks_sent, 1u);
  EXPECT_EQ(world.st(1).stats().fast_acks_delivered, 1u);
}

TEST(St, FastAckIsFasterThanClientTurnaround) {
  // The receiving ST acks before the receiving *client* even sees the
  // message — measure that the ack arrives within roughly one RTT.
  auto world = st_world(2);
  rms::Port port;  // no handler: the client never wakes up
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  Time acked_at = -1;
  st_rms->on_fast_ack([&](std::uint64_t) { acked_at = world.sim.now(); });
  const Time t0 = world.sim.now();
  st_rms->send_acked(text("ping"), 1);
  world.sim.run();
  ASSERT_GE(acked_at, 0);
  EXPECT_LT(acked_at - t0, msec(20));
  EXPECT_GT(port.queued(), 0u);  // client still hasn't read it
}

TEST(St, FragmentedComponentAckedOnlyWhenReassembled) {
  // Fragments are never retransmitted, so a fragmented message can still
  // be lost after its first fragment lands. The receiving ST must fast-ack
  // it only once reassembly completes: an ack on fragment 0 would tell the
  // sender a message was delivered that §4.3 discarding later threw away.
  auto world = st_world(2);
  world.with_faults(fault::FaultPlan().iid_loss(0.2), 3);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  std::set<std::uint64_t> delivered;
  port.set_handler([&](rms::Message m) {
    delivered.insert(std::stoull(dash::to_string(m.data)));
  });
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  std::vector<std::uint64_t> acked;
  st_rms->on_fast_ack([&](std::uint64_t id) { acked.push_back(id); });

  constexpr int kMessages = 60;
  const std::string padding(4000, 'x');  // ~3 fragments per message
  for (int i = 0; i < kMessages; ++i) {
    world.sim.at(msec(5) * (i + 1), [st_rms, i, &padding] {
      (void)st_rms->send_acked(text(std::to_string(i) + padding),
                               static_cast<std::uint64_t>(i));
    });
  }
  world.sim.run_until(sec(5));

  // The loss really broke fragmented messages apart.
  EXPECT_GT(world.st(2).stats().partials_discarded, 0u);
  EXPECT_LT(delivered.size(), static_cast<std::size_t>(kMessages));
  EXPECT_FALSE(acked.empty());
  for (std::uint64_t id : acked) {
    EXPECT_TRUE(delivered.count(id) != 0) << "acked message " << id
                                          << " never delivered";
  }
}

TEST(St, FastAcksOfOnePacketLeaveAsOneMessage) {
  // §3.2 batching: the receiving ST accepts the components of one packet
  // in one pass and returns their acks as one kFastAck. Jumbo frames let
  // several 1 KB components share a packet; the messages go out in bursts
  // of eight, one burst per 10 ms.
  net::NetworkTraits jumbo = net::ethernet_traits();
  jumbo.max_packet_bytes = 9000;
  auto world = st_world(2, jumbo);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request();
  req.desired.quality.reliable = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  std::map<std::uint64_t, int> acked;
  st_rms->on_fast_ack([&](std::uint64_t id) { ++acked[id]; });
  world.sim.run();  // establishment
  const std::uint64_t control_before = world.st(2).stats().control_messages;

  constexpr int kMessages = 200;
  constexpr int kBurst = 8;
  for (int b = 0; b < kMessages / kBurst; ++b) {
    world.sim.at(world.sim.now() + msec(10) * b, [st_rms, b] {
      for (int i = b * kBurst; i < (b + 1) * kBurst; ++i) {
        rms::Message m;
        m.data = patterned_bytes(1024, static_cast<std::uint64_t>(i));
        ASSERT_TRUE(st_rms->send_acked(std::move(m), static_cast<std::uint64_t>(i)).ok());
      }
    });
  }
  world.sim.run();

  EXPECT_EQ(port.delivered(), static_cast<std::uint64_t>(kMessages));
  ASSERT_EQ(acked.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [id, n] : acked) EXPECT_EQ(n, 1) << "ack " << id;
  EXPECT_EQ(world.st(2).stats().fast_acks_sent, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(world.st(1).stats().fast_acks_delivered, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(world.st(2).held_fast_acks(), 0u);
  // One kFastAck per ack would be 1.0 control messages per data message.
  const std::uint64_t control = world.st(2).stats().control_messages - control_before;
  EXPECT_LE(2 * control, static_cast<std::uint64_t>(kMessages))
      << control << " control messages for " << kMessages << " data messages";
}

TEST(St, InvalidatingPeerDropsHeldFastAcks) {
  // invalidate_peer runs between conversations, and may find the last
  // one's acks still held. The batch dies with the peer state and its
  // hold timer is cancelled. Losing those acks is harmless: cumulative
  // transport acks release the sender's capacity too.
  auto world = st_world(2);
  transport::StreamReceiver rx(world.st(2), world.node(2).ports, 60, {});
  transport::StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, {});
  ASSERT_TRUE(tx.ok());
  Bytes received;
  rx.on_data([&](Bytes b) { received.insert(received.end(), b.begin(), b.end()); });
  const Bytes payload = patterned_bytes(16 * 1024, 5);
  ASSERT_TRUE(tx.write(payload).ok());

  // Step to the moment host 2's ST has accepted every data message and
  // still holds the last ack.
  const std::uint64_t messages = payload.size() / 1024;
  while (!(world.st(2).stats().messages_delivered == messages &&
           world.st(2).held_fast_acks() > 0) &&
         world.sim.step()) {
  }
  ASSERT_GT(world.st(2).held_fast_acks(), 0u);
  const std::uint64_t acks_sent = world.st(2).stats().fast_acks_sent;
  const std::uint64_t cancelled = world.sim.stats().timers_cancelled;
  world.st(2).invalidate_peer(1);
  EXPECT_EQ(world.st(2).held_fast_acks(), 0u);
  EXPECT_EQ(world.sim.stats().timers_cancelled, cancelled + 1);

  world.sim.run_until(world.sim.now() + sec(5));
  EXPECT_EQ(world.st(2).stats().fast_acks_sent, acks_sent);
  EXPECT_TRUE(tx.drained());
  EXPECT_TRUE(received == payload);
}

TEST(St, FabricFailureDropsHeldFastAcks) {
  // A batch never outlives its network: when the fabric its acks would
  // return over fails, the batch is dropped and its hold timer cancelled.
  // The path manager moves the reliable stream to the other network and
  // replays what the lost acks left in the handoff buffer, so the client
  // still sees every message exactly once, in order.
  auto world = dash::testing::two_net_world(2);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto req = st_request(32 * 1024, 1024);
  req.desired.quality.reliable = true;
  auto stream = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* st_rms = dynamic_cast<StRms*>(stream.value().get());
  ASSERT_EQ(world.st(1).stream_fabric(st_rms->id()), world.fabric);

  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    world.sim.at(msec(2) * (i + 1),
                 [st_rms, i] { (void)st_rms->send(text(std::to_string(i))); });
  }
  while (!(world.st(2).stats().messages_delivered >= kMessages / 2 &&
           world.st(2).held_fast_acks() > 0) &&
         world.sim.step()) {
  }
  ASSERT_GT(world.st(2).held_fast_acks(), 0u);
  const std::uint64_t cancelled = world.sim.stats().timers_cancelled;
  world.network->set_down(true);
  EXPECT_EQ(world.st(2).held_fast_acks(), 0u);
  EXPECT_GT(world.sim.stats().timers_cancelled, cancelled);

  world.sim.run_until(world.sim.now() + sec(2));
  EXPECT_EQ(world.st(1).stream_fabric(st_rms->id()), world.media[1].fabric.get());
  std::vector<int> got;
  while (auto m = inbox.poll()) got.push_back(std::stoi(dash::to_string(m->data)));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(got[i], i) << "at " << i;
}

// ----------------------------------------------------------------- failure

TEST(St, NetworkFailureNotifiesStream) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();

  bool failed = false;
  rms.value()->on_failure([&](const Error& e) {
    failed = true;
    EXPECT_EQ(e.code, Errc::kRmsFailed);
  });
  world.network->set_down(true);
  EXPECT_TRUE(failed);
  EXPECT_FALSE(rms.value()->send(text("after failure")).ok());
}

// --------------------------------------------------------------- delay bound

TEST(St, DeliveredWithinStBound) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  world.sim.run();  // establishment excluded from per-message delay

  const auto& params = rms.value()->params();
  std::vector<Time> delays;
  port.set_handler([&](rms::Message m) {
    delays.push_back(world.sim.now() - m.sent_at);
  });
  for (int i = 0; i < 20; ++i) {
    world.sim.after(msec(5 * i), [&rms] {
      rms::Message m;
      m.data = patterned_bytes(200);
      ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    });
  }
  world.sim.run();
  ASSERT_EQ(delays.size(), 20u);
  for (Time d : delays) {
    EXPECT_LE(d, params.delay.bound_for(200));
    EXPECT_GT(d, 0);
  }
}

// ----------------------------------------------------------- multi-network

TEST(St, PicksNetworkWherePeerIsAttached) {
  // Two segments: host 1 on both, host 2 only on the second. The ST must
  // reach host 2 via the second fabric (§3.1: multiple network types).
  sim::Simulator sim;
  net::EthernetNetwork lan_a(sim, net::ethernet_traits("lan-a"), 1);
  net::EthernetNetwork lan_b(sim, net::ethernet_traits("lan-b"), 2);
  netrms::NetRmsFabric fab_a(sim, lan_a);
  netrms::NetRmsFabric fab_b(sim, lan_b);
  node::DashNode h1(sim, 1, {&fab_a, &fab_b}, kNoPathManager);
  node::DashNode h2(sim, 2, {&fab_b});
  node::DashNode h3(sim, 3, {&fab_a});

  rms::Port port;
  h2.ports.bind(50, &port);
  auto rms = h1.st->create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  rms.value()->send(text("via lan-b"));
  sim.run();
  EXPECT_EQ(port.delivered(), 1u);
  EXPECT_GT(lan_b.stats().delivered, 0u);
  EXPECT_EQ(lan_a.stats().delivered, 0u);
}

TEST(St, DuplicateNetworkNameThrows) {
  // Control messages name networks, so one host may not join two networks
  // of the same name.
  sim::Simulator sim;
  net::EthernetNetwork lan_a(sim, net::ethernet_traits("lan"), 1);
  net::EthernetNetwork lan_b(sim, net::ethernet_traits("lan"), 2);
  netrms::NetRmsFabric fab_a(sim, lan_a);
  netrms::NetRmsFabric fab_b(sim, lan_b);
  node::DashNode h1(sim, 1, {&fab_a});
  EXPECT_THROW(h1.st->add_network(fab_b), std::invalid_argument);
  EXPECT_EQ(h1.st->networks().size(), 1u);
}

TEST(St, RebindCompletesWhenTheHomeNetworkGoesSilent) {
  // Network A, both hosts' home network, silently stops delivering; a
  // manual rebind then moves the stream to B. The re-establishment is
  // about the stream, so its request and its reply both ride B, and the
  // stream delivers on although A never answers again.
  auto world = dash::testing::two_net_world(2, net::ethernet_traits("eth-a"),
                                            net::ethernet_traits("eth-b"),
                                            kNoPathManager.path);
  world.with_faults(fault::FaultPlan().outage(msec(100), sec(30)), 7);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* st_rms = dynamic_cast<StRms*>(stream.value().get());
  ASSERT_EQ(world.st(1).stream_fabric(st_rms->id()), world.fabric);
  ASSERT_TRUE(st_rms->send(text("before")).ok());
  world.sim.run_until(msec(200));
  ASSERT_EQ(inbox.delivered(), 1u);

  ASSERT_TRUE(world.st(1).rebind_stream(st_rms->id(), *world.media[1].fabric).ok());
  ASSERT_TRUE(st_rms->send(text("after")).ok());
  world.sim.run_until(sec(3));

  EXPECT_TRUE(st_rms->established());
  EXPECT_FALSE(st_rms->failed());
  ASSERT_EQ(inbox.delivered(), 2u);
  EXPECT_EQ(dash::to_string(inbox.poll()->data), "before");
  EXPECT_EQ(dash::to_string(inbox.poll()->data), "after");
}

}  // namespace
}  // namespace dash::st

// Additional coverage appended: optimal-network selection across multiple
// attached networks, and the §4.2 bound-type multiplexing rule.
namespace dash::st {
namespace {

TEST(St, PrefersNetworkThatProvidesSecurityNatively) {
  // Host 1 and host 2 share two segments: an open one and a trusted one.
  // A privacy-requiring stream should ride the trusted network, where the
  // ST can elide encryption entirely (§2.5: "the optimal mechanism").
  sim::Simulator sim;
  net::EthernetNetwork open_lan(sim, net::ethernet_traits("open"), 1);
  auto trusted_traits = net::ethernet_traits("trusted");
  trusted_traits.trusted = true;
  net::EthernetNetwork trusted_lan(sim, trusted_traits, 2);
  netrms::NetRmsFabric open_fabric(sim, open_lan);
  netrms::NetRmsFabric trusted_fabric(sim, trusted_lan);
  // The open network is listed FIRST: only the preference logic can pick
  // the trusted one.
  node::DashNode h1(sim, 1, {&open_fabric, &trusted_fabric}, kNoPathManager);
  node::DashNode h2(sim, 2, {&open_fabric, &trusted_fabric}, kNoPathManager);

  rms::Port inbox;
  h2.ports.bind(50, &inbox);
  auto request = st_request();
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  auto stream = h1.st->create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* st_rms = dynamic_cast<StRms*>(stream.value().get());
  EXPECT_FALSE(st_rms->encrypts());  // elided: the trusted network was chosen

  stream.value()->send(text("secure by placement"));
  sim.run();
  EXPECT_EQ(inbox.delivered(), 1u);
  EXPECT_GT(trusted_lan.stats().delivered, 0u);
  EXPECT_EQ(open_lan.stats().delivered, 0u);
}

TEST(St, NetworkSelectionIsDeterministicAcrossRunsAndSeeds) {
  // Two indistinguishable segments: nothing but the tie-break decides.
  // The choice must be a pure function of registration order — identical
  // across repeated runs and across network RNG seeds.
  auto chosen_network = [](std::uint64_t seed) {
    sim::Simulator sim;
    net::EthernetNetwork lan_a(sim, net::ethernet_traits("twin-a"), seed);
    net::EthernetNetwork lan_b(sim, net::ethernet_traits("twin-b"), seed + 1);
    netrms::NetRmsFabric fab_a(sim, lan_a);
    netrms::NetRmsFabric fab_b(sim, lan_b);
    node::DashNode h1(sim, 1, {&fab_a, &fab_b}, kNoPathManager);
    node::DashNode h2(sim, 2, {&fab_a, &fab_b}, kNoPathManager);
    rms::Port inbox;
    h2.ports.bind(50, &inbox);
    auto stream = h1.st->create(st_request(), {2, 50});
    EXPECT_TRUE(stream.ok());
    auto* srms = dynamic_cast<StRms*>(stream.value().get());
    return h1.st->stream_fabric(srms->id())->traits().name;
  };

  const std::string first = chosen_network(1);
  EXPECT_EQ(chosen_network(1), first);   // same seed, fresh run
  EXPECT_EQ(chosen_network(17), first);  // different network seed
  EXPECT_EQ(chosen_network(99), first);
}

TEST(St, CreationFallsBackWhenFirstFabricRejectsAdmission) {
  // The first-listed network negotiates fine but its admission controller
  // cannot fund a deterministic reservation (56 kb/s trunk); creation must
  // fall through to the second fabric instead of failing outright.
  sim::Simulator sim;
  auto thin = net::ethernet_traits("thin");
  thin.bits_per_second = 56'000;
  net::EthernetNetwork lan_thin(sim, thin, 1);
  net::EthernetNetwork lan_fat(sim, net::ethernet_traits("fat"), 2);
  netrms::NetRmsFabric fab_thin(sim, lan_thin);
  netrms::NetRmsFabric fab_fat(sim, lan_fat);
  node::DashNode h1(sim, 1, {&fab_thin, &fab_fat}, kNoPathManager);
  node::DashNode h2(sim, 2, {&fab_thin, &fab_fat}, kNoPathManager);

  rms::Port inbox;
  h2.ports.bind(50, &inbox);
  rms::Request request = st_request();
  request.desired.delay.type = rms::BoundType::kDeterministic;
  request.desired.delay.a = msec(500);
  request.acceptable.delay.type = rms::BoundType::kDeterministic;
  auto stream = h1.st->create(request, {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  auto* srms = dynamic_cast<StRms*>(stream.value().get());
  EXPECT_EQ(h1.st->stream_fabric(srms->id()), &fab_fat);
  EXPECT_GE(fab_thin.admission().rejected_count(), 1u);

  stream.value()->send(text("rerouted at birth"));
  sim.run();
  EXPECT_EQ(inbox.delivered(), 1u);
  // Data rides the fat network (the control handshake may use either).
  EXPECT_GT(lan_fat.stats().delivered, 0u);
}

TEST(St, FallsBackToSoftwareSecurityWhenOnlyOpenNetworkReaches) {
  auto world = st_world(2);
  auto request = st_request();
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  auto stream = world.st(1).create(request, {2, 50});
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(dynamic_cast<StRms*>(stream.value().get())->encrypts());
}

TEST(St, BoundTypeRuleGovernsMultiplexing) {
  // §4.2: "a deterministic or statistical ST RMS can be multiplexed only
  // onto a deterministic or statistical network RMS." A best-effort
  // channel to the peer must not carry the deterministic stream.
  auto world = st_world(2);
  rms::Port p1, p2;
  world.node(2).ports.bind(50, &p1);
  world.node(2).ports.bind(51, &p2);

  auto best_effort = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(best_effort.ok());
  EXPECT_EQ(world.st(1).stats().net_rms_created, 1u);

  auto det_request = st_request(16 * 1024, 512);
  det_request.desired.delay.type = rms::BoundType::kDeterministic;
  det_request.acceptable.delay.type = rms::BoundType::kDeterministic;
  det_request.desired.delay.a = msec(50);
  auto deterministic = world.st(1).create(det_request, {2, 51});
  ASSERT_TRUE(deterministic.ok()) << deterministic.error().message;

  // A second network RMS was created: no mux join across bound types.
  EXPECT_EQ(world.st(1).stats().net_rms_created, 2u);
  EXPECT_EQ(world.st(1).stats().mux_joins, 0u);
  EXPECT_EQ(deterministic.value()->params().delay.type,
            rms::BoundType::kDeterministic);

  // Both still deliver.
  best_effort.value()->send(text("on best effort"));
  deterministic.value()->send(text("on deterministic"));
  world.sim.run();
  EXPECT_EQ(p1.delivered(), 1u);
  EXPECT_EQ(p2.delivered(), 1u);
}

}  // namespace
}  // namespace dash::st

// Liveness: establishment must FAIL (not hang) when the peer is
// unreachable for the whole handshake.
namespace dash::st {
namespace {

TEST(St, EstablishmentFailsWhenPeerUnreachable) {
  auto world = st_world(2);
  // Kill the network before anything can be exchanged. Creation still
  // succeeds synchronously (admission is local)...
  auto rms = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(rms.ok());
  bool failed = false;
  rms.value()->on_failure([&](const Error&) { failed = true; });
  world.network->set_down(true);

  // ...but the control-channel retries must exhaust and fail the stream
  // instead of parking it forever.
  world.sim.run_until(sec(30));
  EXPECT_EQ(world.sim.pending(), 0u) << "events still pending: a retry loop leaked";
  EXPECT_TRUE(failed || rms.value()->failed());
  EXPECT_FALSE(dynamic_cast<StRms*>(rms.value().get())->established());
}

}  // namespace
}  // namespace dash::st

// Robustness: the ST's demux and control parsers face hostile bytes
// arriving straight off the network (a malicious or broken peer). Nothing
// may crash; garbage is counted and dropped.
namespace dash::st {
namespace {

TEST(StRobustness, GarbageOnDataPortIsDropped) {
  auto world = st_world(2);
  // A healthy stream first, so real state exists to confuse.
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto good = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(good.ok());
  good.value()->send(text("legit"));
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);

  // Host 3... does not exist; host 1 itself plays attacker with a raw
  // network RMS aimed at the ST data port.
  auto raw = world.fabric->create(1, dash::testing::loose_request(16 * 1024, 1400),
                                  {2, st::kDataPort});
  ASSERT_TRUE(raw.ok());
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    rms::Message m;
    const auto size = static_cast<std::size_t>(rng.range(1, 1300));
    Bytes data(size);
    for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
    m.data = std::move(data);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  }
  // Crafted: correct tag, bogus component claiming a huge size.
  {
    Bytes wire;
    Writer w(wire);
    w.u8(kStDataTag);
    w.u8(3);            // claims 3 components
    w.u64(12345);       // unknown stream
    w.u64(0);
    w.i64(0);
    w.u8(0);
    w.u32(1'000'000);   // size far beyond the buffer
    rms::Message m;
    m.data = std::move(wire);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  }
  world.sim.run();

  // The healthy stream still works afterwards.
  good.value()->send(text("still alive"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 2u);
}

TEST(StRobustness, GarbageOnControlPortIsDropped) {
  auto world = st_world(2);
  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 200),
                                  {2, st::kControlPort});
  ASSERT_TRUE(raw.ok());
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    rms::Message m;
    const auto size = static_cast<std::size_t>(rng.range(1, 190));
    Bytes data(size);
    for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
    m.data = std::move(data);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  }
  world.sim.run();

  // The ST still establishes real streams afterwards.
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto good = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(good.ok());
  good.value()->send(text("after the garbage"));
  world.sim.run();
  EXPECT_EQ(port.delivered(), 1u);
}

TEST(StRobustness, MalformedFastAckIsDropped) {
  // Hostile kFastAck bytes straight to host 1's control port. Each names a
  // live stream and ack ids it would accept — a client id and an internal
  // handoff id — so only the parser's checks keep them from the client's
  // ack callback and the handoff buffer.
  auto world = dash::testing::two_net_world(3);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto req = st_request(32 * 1024, 1024);
  req.desired.quality.reliable = true;
  auto rms = world.st(1).create(req, {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  auto* st_rms = dynamic_cast<StRms*>(rms.value().get());
  std::vector<std::uint64_t> acked;
  st_rms->on_fast_ack([&](std::uint64_t id) { acked.push_back(id); });
  ASSERT_TRUE(st_rms->send(text("legit")).ok());
  world.sim.run_until(msec(500));
  ASSERT_EQ(port.delivered(), 1u);
  const SubtransportLayer::Stats before = world.st(1).stats();

  const std::uint64_t id = st_rms->id();
  const std::uint64_t handoff = kHandoffAckBit | 0;
  const std::vector<Bytes> hostile = {
      fast_ack_wire(0, {}),                       // count 0
      fast_ack_wire(0, {id, 7}),                  // count 0, a pair after it
      fast_ack_wire(3, {id, 7, id, handoff}),     // count above the pairs present
      fast_ack_wire(1, {id}, 4),                  // truncated pair
      fast_ack_wire(1, {id, 7}, 1),               // trailing byte
      fast_ack_wire(2, {id, 7, id, handoff}, 8),  // trailing bytes
      fast_ack_wire(1, {id + 1000, 7}),           // unknown ST id
  };
  auto peer = world.fabric->create(2, dash::testing::loose_request(4096, 256),
                                   {1, kControlPort});
  ASSERT_TRUE(peer.ok());
  for (const Bytes& wire : hostile) {
    rms::Message m;
    m.data = wire;
    ASSERT_TRUE(peer.value()->send(std::move(m)).ok());
  }
  // Host 3 is not the stream's peer: its well-formed ack is refused too.
  auto third = world.fabric->create(3, dash::testing::loose_request(4096, 256),
                                    {1, kControlPort});
  ASSERT_TRUE(third.ok());
  {
    rms::Message m;
    m.data = fast_ack_wire(2, {id, 7, id, handoff});
    ASSERT_TRUE(third.value()->send(std::move(m)).ok());
  }
  world.sim.run_until(sec(1));
  EXPECT_TRUE(acked.empty());
  EXPECT_EQ(world.st(1).stats().fast_acks_delivered, before.fast_acks_delivered);
  EXPECT_EQ(world.st(1).stats().handoff_acks, before.handoff_acks);

  // The same path takes a well-formed batch from the peer.
  rms::Message good;
  good.data = fast_ack_wire(2, {id, 7, id, 8});
  ASSERT_TRUE(peer.value()->send(std::move(good)).ok());
  world.sim.run_until(sec(2));
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{7, 8}));
}

TEST(StRobustness, TruncatedComponentIsDroppedBeforeDemux) {
  // One component carrying every optional field (fragment index and count,
  // ack id, MAC), cut short at each length in turn: the component decoder
  // must refuse every cut before the demux sees it.
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->send(text("before")).ok());
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);

  const auto flags = static_cast<std::uint8_t>(kFragment | kAckRequest | kMac);
  const Bytes body = to_bytes("a fragment body");
  Bytes wire;
  Writer w(wire);
  w.u8(kStDataTag);
  w.u8(1);
  w.u64(dynamic_cast<StRms*>(stream.value().get())->id());
  w.u64(1);  // sequence
  w.i64(world.sim.now());
  w.u8(flags);
  w.u16(0);       // fragment index
  w.u16(2);       // fragment count
  w.u64(77);      // ack id
  w.u64(0xBAD);   // MAC: wrong, so the whole component is an auth drop
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
  ASSERT_EQ(wire.size(), kEnvelopeBytes + component_bytes(body.size(), flags));

  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 256),
                                  {2, kDataPort});
  ASSERT_TRUE(raw.ok());
  auto send = [&](std::size_t len) {
    rms::Message m;
    m.data = Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
    world.sim.run();
  };
  const SubtransportLayer::Stats before = world.st(2).stats();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    send(len);
    EXPECT_EQ(world.st(2).stats(), before) << "truncated at " << len << " bytes";
  }
  EXPECT_EQ(world.st(2).held_fast_acks(), 0u);
  EXPECT_EQ(port.delivered(), 1u);

  send(wire.size());  // whole: it reaches the demux, which checks the MAC
  EXPECT_EQ(world.st(2).stats().auth_drops, before.auth_drops + 1);
  EXPECT_EQ(world.st(2).stats().fast_acks_sent, before.fast_acks_sent);

  ASSERT_TRUE(stream.value()->send(text("after")).ok());
  world.sim.run();
  EXPECT_EQ(port.delivered(), 2u);
}

TEST(StRobustness, FragmentWithImpossibleIndexOrCountIsDropped) {
  // A fragment header must name an index below a nonzero count. A count of
  // 0 would "reassemble" at once: an empty message delivered in place of
  // the real one, which then arrives stale and is dropped.
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->send(text("before")).ok());
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);

  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 256),
                                  {2, kDataPort});
  ASSERT_TRUE(raw.ok());
  const SubtransportLayer::Stats before = world.st(2).stats();
  const std::vector<std::pair<std::uint16_t, std::uint16_t>> headers = {{0, 0}, {2, 2}, {9, 1}};
  for (const auto& [index, count] : headers) {
    Bytes wire;
    Writer w(wire);
    w.u8(kStDataTag);
    w.u8(1);
    w.u64(dynamic_cast<StRms*>(stream.value().get())->id());
    w.u64(1);  // the sequence number the next genuine message carries
    w.i64(world.sim.now());
    w.u8(kFragment);
    w.u16(index);
    w.u16(count);
    w.sized_bytes(to_bytes("forged"));
    rms::Message m;
    m.data = std::move(wire);
    ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
    world.sim.run();
    EXPECT_EQ(world.st(2).stats(), before) << "fragment " << index << " of " << count;
  }

  ASSERT_TRUE(stream.value()->send(text("after")).ok());
  world.sim.run();
  ASSERT_EQ(port.delivered(), 2u);
  (void)port.poll();
  EXPECT_EQ(dash::to_string(port.poll()->data), "after");
}

TEST(StRobustness, ComponentForDeletedStreamCountsUnknown) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  stream.value()->send(text("one"));
  world.sim.run();
  stream.value()->close();
  world.sim.run();  // the kDelete reaches the peer

  // Forge a component for the now-deleted id via a raw network RMS.
  auto raw = world.fabric->create(1, dash::testing::loose_request(4096, 400),
                                  {2, st::kDataPort});
  ASSERT_TRUE(raw.ok());
  Bytes wire;
  Writer w(wire);
  w.u8(kStDataTag);
  w.u8(1);
  w.u64(1);  // the deleted ST RMS id
  w.u64(99);
  w.i64(0);
  w.u8(0);
  w.u32(4);
  w.bytes(to_bytes("boo!"));
  rms::Message m;
  m.data = std::move(wire);
  ASSERT_TRUE(raw.value()->send(std::move(m)).ok());
  world.sim.run();

  EXPECT_EQ(port.delivered(), 1u);  // nothing extra delivered
  EXPECT_GE(world.st(2).stats().unknown_dropped, 1u);
}

TEST(StRobustness, CreateReplyCannotSettleTheHandshake) {
  // Host 2's genuine auth response is lost. A kCreateReply that names the
  // handshake's request id (1) must not stand in for it, whether it names
  // the stream or stream id 0: a reply settles only its own kind of
  // request, so the stream waits for the challenge's retry and a verified
  // response.
  auto world = st_world(2);
  world.with_faults(fault::FaultPlan().iid_loss(1.0, {.start = 0, .end = msec(50)},
                                                {.src = 2, .symmetric = false}));
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(st_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  auto* st_rms = dynamic_cast<StRms*>(stream.value().get());
  world.sim.run_until(msec(60));
  ASSERT_FALSE(st_rms->established());

  auto forger = world.fabric->create(2, dash::testing::loose_request(4096, 256),
                                     {1, kControlPort});
  ASSERT_TRUE(forger.ok());
  for (const std::uint64_t st_id : {st_rms->id(), std::uint64_t{0}}) {
    rms::Message reply;
    reply.data = encode(CreateReply{1, st_id, true});
    ASSERT_TRUE(forger.value()->send(std::move(reply)).ok());
  }
  world.sim.run_until(msec(200));
  EXPECT_FALSE(st_rms->established());

  world.sim.run_until(sec(1));
  EXPECT_TRUE(st_rms->established());
}

/// Records every answered probe the ST reports to its observer.
struct ProbeLog final : StreamObserver {
  struct Reply {
    HostId peer = 0;
    netrms::NetRmsFabric* fabric = nullptr;
    std::uint64_t seq = 0;
  };
  std::vector<Reply> replies;
  void on_probe_reply(HostId peer, netrms::NetRmsFabric& fabric,
                      std::uint64_t seq) override {
    replies.push_back({peer, &fabric, seq});
  }
};

TEST(StRobustness, PingIsAnsweredOnlyOnTheNetworkItNames) {
  // Host 1 forges pings to host 2's control port over network A. Host 2
  // answers a ping that names B over B, and a ping that names a network it
  // never joined on no network at all.
  ProbeLog log;
  auto world = dash::testing::two_net_world(2, net::ethernet_traits("eth-a"),
                                            net::ethernet_traits("eth-b"),
                                            kNoPathManager.path);
  world.st(1).set_stream_observer(&log);
  auto forger = world.fabric->create(1, dash::testing::loose_request(4096, 256),
                                     {2, kControlPort});
  ASSERT_TRUE(forger.ok());
  auto ping = [&](std::uint64_t seq, std::string network) {
    rms::Message m;
    m.data = encode(Ping{seq, std::move(network)});
    ASSERT_TRUE(forger.value()->send(std::move(m)).ok());
  };

  ping(1, "eth-c");
  world.sim.run();
  EXPECT_EQ(world.st(2).stats().control_messages, 0u);
  EXPECT_EQ(world.media[1].network->stats().delivered, 0u);
  EXPECT_TRUE(log.replies.empty());

  ping(2, "eth-b");
  world.sim.run();
  EXPECT_EQ(world.st(2).stats().control_messages, 1u);
  EXPECT_GT(world.media[1].network->stats().delivered, 0u);
  ASSERT_EQ(log.replies.size(), 1u);
  EXPECT_EQ(log.replies[0].peer, 2u);
  EXPECT_EQ(log.replies[0].fabric, world.media[1].fabric.get());
  EXPECT_EQ(log.replies[0].seq, 2u);
}

TEST(StRobustness, StrayPongCreatesNoProbeHealth) {
  // Host 1 manages no stream, so it never probed host 2. A pong from host
  // 2 answers nothing and must leave no probe state behind.
  auto world = dash::testing::two_net_world(2);
  auto forger = world.fabric->create(2, dash::testing::loose_request(4096, 256),
                                     {1, kControlPort});
  ASSERT_TRUE(forger.ok());
  rms::Message m;
  m.data = encode(Pong{1, "eth-a"});
  ASSERT_TRUE(forger.value()->send(std::move(m)).ok());
  world.sim.run();

  const path::PathManager& pm = *world.node(1).path;
  EXPECT_EQ(pm.probe_health(2, *world.fabric), nullptr);
  EXPECT_EQ(pm.stats().pongs_received, 0u);
}

}  // namespace
}  // namespace dash::st
