// Tests for the network substrate: queue disciplines (with the §4.3.1
// ordering refinement), links, the Ethernet-like segment, and the
// internet-like gateway network.
#include <gtest/gtest.h>

#include <vector>

#include "net/ethernet.h"
#include "net/internet.h"
#include "net/link.h"
#include "net/token_ring.h"
#include "net/queue.h"
#include "net/traits.h"
#include "netrms/fabric.h"
#include "st/st.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/stats.h"
#include "sim/simulator.h"

namespace dash::net {
namespace {

Packet make_packet(HostId src, HostId dst, std::size_t size, Time deadline,
                   int priority = 0, std::uint64_t stream = 0) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.stream = stream;
  p.deadline = deadline;
  p.priority = priority;
  p.payload = patterned_bytes(size, size);
  return p;
}

// ---------------------------------------------------------------- TxQueue

TEST(TxQueue, DeadlineOrdering) {
  TxQueue q(Discipline::kDeadline);
  q.push(make_packet(1, 2, 10, msec(30)));
  q.push(make_packet(1, 2, 10, msec(10)));
  q.push(make_packet(1, 2, 10, msec(20)));
  EXPECT_EQ(q.pop()->deadline, msec(10));
  EXPECT_EQ(q.pop()->deadline, msec(20));
  EXPECT_EQ(q.pop()->deadline, msec(30));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(TxQueue, FifoOrdering) {
  TxQueue q(Discipline::kFifo);
  q.push(make_packet(1, 2, 10, msec(30)));
  q.push(make_packet(1, 2, 10, msec(10)));
  EXPECT_EQ(q.pop()->deadline, msec(30));  // arrival order, deadline ignored
  EXPECT_EQ(q.pop()->deadline, msec(10));
}

TEST(TxQueue, PriorityOrdering) {
  TxQueue q(Discipline::kPriority);
  q.push(make_packet(1, 2, 10, msec(1), /*priority=*/5));
  q.push(make_packet(1, 2, 10, msec(2), /*priority=*/1));
  q.push(make_packet(1, 2, 10, msec(3), /*priority=*/5));
  EXPECT_EQ(q.pop()->priority, 1);
  EXPECT_EQ(q.pop()->deadline, msec(1));  // FIFO within priority
  EXPECT_EQ(q.pop()->deadline, msec(3));
}

// §4.3.1 refinement: "if message A is sent after message B, and has a
// transmission deadline greater than or equal to that of B, then B is
// delivered first." Stable EDF must satisfy this for every interleaving.
TEST(TxQueue, DeadlineRefinementProperty) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    TxQueue q(Discipline::kDeadline);
    struct Sent {
      Time deadline;
      std::uint64_t order;
    };
    std::vector<Sent> sent;
    for (std::uint64_t i = 0; i < 20; ++i) {
      const Time deadline = msec(rng.range(1, 10));
      auto p = make_packet(1, 2, 10, deadline);
      p.seq = i;
      q.push(std::move(p));
      sent.push_back({deadline, i});
    }
    std::vector<std::uint64_t> popped;
    while (auto p = q.pop()) popped.push_back(p->seq);

    // For every pair (B earlier, A later with deadline >= B), B pops first.
    std::vector<std::size_t> position(sent.size());
    for (std::size_t i = 0; i < popped.size(); ++i) position[popped[i]] = i;
    for (std::size_t b = 0; b < sent.size(); ++b) {
      for (std::size_t a = b + 1; a < sent.size(); ++a) {
        if (sent[a].deadline >= sent[b].deadline) {
          EXPECT_LT(position[b], position[a])
              << "trial " << trial << ": packet " << a << " (deadline "
              << sent[a].deadline << ") overtook " << b << " (deadline "
              << sent[b].deadline << ")";
        }
      }
    }
  }
}

TEST(TxQueue, ByteCapacityDropsTail) {
  TxQueue q(Discipline::kFifo, 25);
  EXPECT_TRUE(q.push(make_packet(1, 2, 10, 0)));
  EXPECT_TRUE(q.push(make_packet(1, 2, 10, 0)));
  EXPECT_FALSE(q.push(make_packet(1, 2, 10, 0)));  // 30 > 25
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.bytes(), 20u);
  q.pop();
  EXPECT_TRUE(q.push(make_packet(1, 2, 10, 0)));
}

TEST(TxQueue, HeadDeadline) {
  TxQueue q(Discipline::kDeadline);
  EXPECT_EQ(q.head_deadline(), kTimeNever);
  q.push(make_packet(1, 2, 10, msec(7)));
  q.push(make_packet(1, 2, 10, msec(3)));
  EXPECT_EQ(q.head_deadline(), msec(3));
}

// ------------------------------------------------------------ SimplexLink

SimplexLink::Config test_link_config() {
  SimplexLink::Config c;
  c.bits_per_second = 8'000'000;  // 1 byte per microsecond
  c.propagation_delay = usec(100);
  c.framing_bytes = 0;
  c.buffer_bytes = 10'000;
  return c;
}

TEST(SimplexLink, DeliversWithSerializationAndPropagation) {
  sim::Simulator sim;
  SimplexLink link(sim, test_link_config(), Rng(1));
  std::vector<Time> arrivals;
  link.set_sink([&](Packet) { arrivals.push_back(sim.now()); });
  link.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  // 100 bytes at 1 B/us = 100us tx + 100us propagation.
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], usec(200));
}

TEST(SimplexLink, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  SimplexLink link(sim, test_link_config(), Rng(1));
  std::vector<Time> arrivals;
  link.set_sink([&](Packet) { arrivals.push_back(sim.now()); });
  link.send(make_packet(1, 2, 100, msec(1)));
  link.send(make_packet(1, 2, 100, msec(2)));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], usec(200));
  EXPECT_EQ(arrivals[1], usec(300));  // second tx starts at 100us
}

TEST(SimplexLink, DeadlineDisciplineReordersQueue) {
  sim::Simulator sim;
  SimplexLink link(sim, test_link_config(), Rng(1));
  std::vector<Time> deadlines;
  link.set_sink([&](Packet p) { deadlines.push_back(p.deadline); });
  // First packet seizes the wire; the next three sort by deadline.
  link.send(make_packet(1, 2, 100, msec(9)));
  link.send(make_packet(1, 2, 100, msec(3)));
  link.send(make_packet(1, 2, 100, msec(1)));
  link.send(make_packet(1, 2, 100, msec(2)));
  sim.run();
  EXPECT_EQ(deadlines, (std::vector<Time>{msec(9), msec(1), msec(2), msec(3)}));
}

TEST(SimplexLink, BufferOverflowDrops) {
  sim::Simulator sim;
  auto config = test_link_config();
  config.buffer_bytes = 250;
  SimplexLink link(sim, config, Rng(1));
  int delivered = 0;
  link.set_sink([&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_GT(link.stats().dropped_overflow, 0u);
  EXPECT_LT(delivered, 10);
}

TEST(SimplexLink, CorruptionAtConfiguredRate) {
  sim::Simulator sim;
  auto config = test_link_config();
  config.bit_error_rate = 1e-4;  // 1000-byte packet: ~55% corruption chance
  config.buffer_bytes = 0;       // unbounded: this test is about corruption
  SimplexLink link(sim, config, Rng(7));
  int corrupted = 0, total = 0;
  link.set_sink([&](Packet p) {
    ++total;
    if (p.corrupted) ++corrupted;
  });
  for (int i = 0; i < 200; ++i) link.send(make_packet(1, 2, 1000, kTimeNever));
  sim.run();
  EXPECT_EQ(total, 200);
  const double expected = packet_error_probability(1e-4, 1000);
  EXPECT_NEAR(static_cast<double>(corrupted) / total, expected, 0.15);
  // Corruption is real: payload differs from the pattern.
  EXPECT_GT(corrupted, 0);
}

TEST(SimplexLink, CorruptionFlipsPayloadBits) {
  sim::Simulator sim;
  auto config = test_link_config();
  config.bit_error_rate = 1.0;  // every packet corrupted
  SimplexLink link(sim, config, Rng(3));
  Bytes original = patterned_bytes(100, 100);
  bool payload_differs = false;
  link.set_sink([&](Packet p) {
    payload_differs = p.payload != original;
    EXPECT_TRUE(p.corrupted);
  });
  link.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_TRUE(payload_differs);
}

TEST(SimplexLink, DownDropsAndNotifies) {
  sim::Simulator sim;
  SimplexLink link(sim, test_link_config(), Rng(1));
  int delivered = 0, down_events = 0;
  link.set_sink([&](Packet) { ++delivered; });
  link.on_down([&] { ++down_events; });
  link.send(make_packet(1, 2, 100, kTimeNever));
  link.set_down(true);
  link.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 0);  // queued packet flushed, new send dropped
  EXPECT_EQ(down_events, 1);
  EXPECT_GE(link.stats().dropped_down, 2u);
}

TEST(SimplexLink, ReservationGuaranteesStreamShare) {
  sim::Simulator sim;
  auto config = test_link_config();
  config.buffer_bytes = 1000;
  SimplexLink link(sim, config, Rng(1));
  link.set_sink([](Packet) {});

  ASSERT_TRUE(link.reserve(/*stream=*/7, /*bytes=*/600));

  // An unreserved stream can only use the 400-byte shared pool.
  int accepted_other = 0;
  for (int i = 0; i < 10; ++i) {
    if (link.send(make_packet(1, 2, 100, kTimeNever, 0, /*stream=*/8))) ++accepted_other;
  }
  // The first packet goes straight to the wire (not queued), then 4 fill
  // the 400-byte shared pool.
  EXPECT_LE(accepted_other, 5);

  // Stream 7 still gets its reserved 600 bytes.
  int accepted_reserved = 0;
  for (int i = 0; i < 6; ++i) {
    if (link.send(make_packet(1, 2, 100, kTimeNever, 0, /*stream=*/7))) ++accepted_reserved;
  }
  EXPECT_EQ(accepted_reserved, 6);
  sim.run();
}

TEST(SimplexLink, ReservationRejectedBeyondBuffer) {
  sim::Simulator sim;
  auto config = test_link_config();
  config.buffer_bytes = 1000;
  SimplexLink link(sim, config, Rng(1));
  EXPECT_TRUE(link.reserve(1, 700));
  EXPECT_FALSE(link.reserve(2, 400));  // 1100 > 1000
  link.release(1);
  EXPECT_TRUE(link.reserve(2, 400));
}

// ------------------------------------------------------------- Ethernet

TEST(Ethernet, DeliversBetweenHosts) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  std::vector<std::string> got;
  net.attach(1, [](Packet) {});
  net.attach(2, [&](Packet p) { got.push_back(to_string(p.payload)); });
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = to_bytes("hello");
  EXPECT_TRUE(net.send(std::move(p)));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Ethernet, TimingMatchesMediumRate) {
  sim::Simulator sim;
  auto traits = ethernet_traits();
  EthernetNetwork net(sim, traits, 1);
  net.attach(1, [](Packet) {});
  Time arrival = -1;
  net.attach(2, [&](Packet) { arrival = sim.now(); });
  net.send(make_packet(1, 2, 1000, kTimeNever));
  sim.run();
  const Time expected =
      transmission_time(1024, traits.bits_per_second) + traits.propagation_delay;
  EXPECT_EQ(arrival, expected);
}

TEST(Ethernet, BroadcastReachesAllButSender) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  int received = 0;
  for (HostId h = 1; h <= 4; ++h) {
    net.attach(h, [&](Packet) { ++received; });
  }
  net.send(make_packet(1, kBroadcast, 50, kTimeNever));
  sim.run();
  EXPECT_EQ(received, 3);
}

TEST(Ethernet, MediumIsSharedAcrossHosts) {
  sim::Simulator sim;
  auto traits = ethernet_traits();
  EthernetNetwork net(sim, traits, 1);
  net.attach(1, [](Packet) {});
  net.attach(2, [](Packet) {});
  std::vector<Time> arrivals;
  net.attach(3, [&](Packet) { arrivals.push_back(sim.now()); });
  // Two hosts transmit simultaneously: transmissions serialize.
  net.send(make_packet(1, 3, 1000, msec(1)));
  net.send(make_packet(2, 3, 1000, msec(2)));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const Time tx = transmission_time(1024, traits.bits_per_second);
  EXPECT_EQ(arrivals[1] - arrivals[0], tx);
}

TEST(Ethernet, DeadlineArbitrationAcrossInterfaces) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  net.attach(1, [](Packet) {});
  net.attach(2, [](Packet) {});
  std::vector<Time> deadlines;
  net.attach(3, [&](Packet p) { deadlines.push_back(p.deadline); });
  // Host 1 seizes the medium; then host 2's urgent packet beats host 1's
  // queued lazy one even though host 1 queued first.
  net.send(make_packet(1, 3, 1000, msec(50)));
  net.send(make_packet(1, 3, 1000, msec(40)));
  net.send(make_packet(2, 3, 1000, msec(5)));
  sim.run();
  ASSERT_EQ(deadlines.size(), 3u);
  EXPECT_EQ(deadlines[0], msec(50));
  EXPECT_EQ(deadlines[1], msec(5));
  EXPECT_EQ(deadlines[2], msec(40));
}

TEST(Ethernet, EavesdropperSeesEveryFrame) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  net.attach(1, [](Packet) {});
  net.attach(2, [](Packet) {});
  Eavesdropper eve(net);
  Packet p = make_packet(1, 2, 0, kTimeNever);
  p.payload = to_bytes("top secret data");
  net.send(std::move(p));
  sim.run();
  EXPECT_EQ(eve.count(), 1u);
  EXPECT_TRUE(eve.saw_plaintext(to_bytes("top secret")));
  EXPECT_FALSE(eve.saw_plaintext(to_bytes("other text")));
}

TEST(Ethernet, OversizedFrameRejected) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  net.attach(1, [](Packet) {});
  net.attach(2, [](Packet) {});
  EXPECT_FALSE(net.send(make_packet(1, 2, 2000, kTimeNever)));
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(Ethernet, HardwareChecksumDropsCorruptFrames) {
  sim::Simulator sim;
  auto traits = ethernet_traits();
  traits.bit_error_rate = 1e-3;  // heavy corruption
  traits.hardware_checksum = true;
  EthernetNetwork net(sim, traits, 5);
  net.attach(1, [](Packet) {});
  int corrupt_delivered = 0, delivered = 0;
  net.attach(2, [&](Packet p) {
    ++delivered;
    if (p.corrupted) ++corrupt_delivered;
  });
  for (int i = 0; i < 100; ++i) net.send(make_packet(1, 2, 1000, kTimeNever));
  sim.run();
  EXPECT_EQ(corrupt_delivered, 0);
  EXPECT_LT(delivered, 100);
  EXPECT_GT(net.stats().corrupted_dropped, 0u);
}

TEST(Ethernet, DownDropsEverything) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  net.attach(1, [](Packet) {});
  int delivered = 0;
  net.attach(2, [&](Packet) { ++delivered; });
  net.set_down(true);
  EXPECT_FALSE(net.send(make_packet(1, 2, 100, kTimeNever)));
  sim.run();
  EXPECT_EQ(delivered, 0);
}

// -------------------------------------------------------------- Internet

TEST(Internet, DumbbellDelivers) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1, 2}, {3, 4});
  net->attach(1, [](Packet) {});
  std::vector<std::string> got;
  net->attach(3, [&](Packet p) { got.push_back(to_string(p.payload)); });
  Packet p;
  p.src = 1;
  p.dst = 3;
  p.payload = to_bytes("across the wide area");
  EXPECT_TRUE(net->send(std::move(p)));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "across the wide area");
}

TEST(Internet, RouteHopsCounted) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1}, {2});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});
  EXPECT_EQ(net->route_hops(1, 2), 1u);  // one trunk between the gateways
}

TEST(Internet, MultiHopLinearTopology) {
  sim::Simulator sim;
  InternetNetwork net(sim, internet_traits(), 1);
  const auto r0 = net.add_router();
  const auto r1 = net.add_router();
  const auto r2 = net.add_router();
  auto trunk = internet_trunk_config(net.traits(), Discipline::kDeadline);
  net.add_trunk(r0, r1, trunk);
  net.add_trunk(r1, r2, trunk);
  SimplexLink::Config access = trunk;
  access.propagation_delay = usec(10);
  net.attach_host(1, r0, access);
  net.attach_host(2, r2, access);
  net.attach(1, [](Packet) {});
  int delivered = 0;
  net.attach(2, [&](Packet) { ++delivered; });
  net.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.route_hops(1, 2), 2u);
}

TEST(Internet, TrunkDownDropsTraffic) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1}, {2});
  net->attach(1, [](Packet) {});
  int delivered = 0;
  net->attach(2, [&](Packet) { ++delivered; });
  net->set_trunk_down(0, 1, true);
  net->send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 0);
  net->set_trunk_down(0, 1, false);
  net->send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Internet, RingReroutesAroundDownedTrunk) {
  // Ring of three gateways: r0–r1–r2–r0. With every trunk up the 1→2
  // traffic takes the direct r0–r1 trunk; downing it must bend the route
  // the long way around the ring instead of partitioning the hosts.
  sim::Simulator sim;
  InternetNetwork net(sim, internet_traits(), 1);
  const auto r0 = net.add_router();
  const auto r1 = net.add_router();
  const auto r2 = net.add_router();
  auto trunk = internet_trunk_config(net.traits(), Discipline::kDeadline);
  net.add_trunk(r0, r1, trunk);
  net.add_trunk(r1, r2, trunk);
  net.add_trunk(r2, r0, trunk);
  SimplexLink::Config access = trunk;
  access.propagation_delay = usec(10);
  net.attach_host(1, r0, access);
  net.attach_host(2, r1, access);
  net.attach(1, [](Packet) {});
  int delivered = 0;
  net.attach(2, [&](Packet) { ++delivered; });

  EXPECT_EQ(net.route_hops(1, 2), 1u);  // direct trunk

  net.set_trunk_down(r0, r1, true);
  EXPECT_EQ(net.route_hops(1, 2), 2u);  // around the ring via r2
  net.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 1);

  net.set_trunk_down(r0, r1, false);
  EXPECT_EQ(net.route_hops(1, 2), 1u);  // repaired trunk wins again
  net.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Internet, GatewayOverloadDropsAtQueue) {
  sim::Simulator sim;
  auto traits = internet_traits();
  traits.buffer_bytes = 2000;  // tiny gateway buffers
  auto net = make_dumbbell(sim, traits, 1, {1, 2, 3}, {9});
  for (HostId h : {1, 2, 3}) net->attach(h, [](Packet) {});
  int delivered = 0;
  net->attach(9, [&](Packet) { ++delivered; });
  // Fast access links into a slow trunk: the gateway queue overflows.
  for (int i = 0; i < 100; ++i) {
    for (HostId h : {1, 2, 3}) {
      net->send(make_packet(h, 9, 500, kTimeNever));
    }
  }
  sim.run();
  EXPECT_GT(net->gateway_drops(), 0u);
  EXPECT_LT(delivered, 300);
}

TEST(Internet, ReservationProtectsStreamThroughGateway) {
  sim::Simulator sim;
  auto traits = internet_traits();
  traits.buffer_bytes = 4000;
  auto net = make_dumbbell(sim, traits, 1, {1, 2}, {9});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});
  int reserved_delivered = 0, other_delivered = 0;
  net->attach(9, [&](Packet p) {
    if (p.stream == 100) {
      ++reserved_delivered;
    } else {
      ++other_delivered;
    }
  });

  ASSERT_TRUE(net->reserve_stream(100, 1, 9, 2000));

  // Host 2 floods; host 1's reserved stream sends at a modest paced rate.
  for (int burst = 0; burst < 20; ++burst) {
    sim.at(msec(burst * 10), [&net] {
      for (int i = 0; i < 40; ++i) {
        net->send(make_packet(2, 9, 500, kTimeNever, 0, /*stream=*/200));
      }
    });
    sim.at(msec(burst * 10) + usec(1), [&net] {
      net->send(make_packet(1, 9, 500, kTimeNever, 0, /*stream=*/100));
    });
  }
  sim.run();
  EXPECT_EQ(reserved_delivered, 20);  // nothing of the reserved stream lost
  EXPECT_LT(other_delivered, 800);    // the flood took the losses
}

TEST(Internet, ReservationRejectedWhenPathFull) {
  sim::Simulator sim;
  auto traits = internet_traits();
  traits.buffer_bytes = 1000;
  auto net = make_dumbbell(sim, traits, 1, {1}, {2});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});
  EXPECT_TRUE(net->reserve_stream(1, 1, 2, 800));
  EXPECT_FALSE(net->reserve_stream(2, 1, 2, 800));
  net->release_stream(1);
  EXPECT_TRUE(net->reserve_stream(2, 1, 2, 800));
}

TEST(Internet, OversizedPacketRejected) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1}, {2});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});
  EXPECT_FALSE(net->send(make_packet(1, 2, 1000, kTimeNever)));  // MTU 576
}

// ---------------------------------------------------------------- traits

TEST(Traits, QualityLimitsGateSecurity) {
  auto t = ethernet_traits();
  rms::Quality privacy{false, false, true};
  EXPECT_FALSE(quality_limits(t, privacy).supported);
  t.link_encryption = true;
  EXPECT_TRUE(quality_limits(t, privacy).supported);

  rms::Quality auth{false, true, false};
  EXPECT_FALSE(quality_limits(t, auth).supported);
  t.trusted = true;
  EXPECT_TRUE(quality_limits(t, auth).supported);
}

TEST(Traits, QualityLimitsGateReliability) {
  auto t = ethernet_traits();
  rms::Quality reliable{true, false, false};
  EXPECT_TRUE(quality_limits(t, reliable).supported);
  t.bit_error_rate = 1e-6;
  EXPECT_FALSE(quality_limits(t, reliable).supported);
}

TEST(Traits, PacketErrorProbability) {
  EXPECT_DOUBLE_EQ(packet_error_probability(0.0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(packet_error_probability(1.0, 1), 1.0);
  // Small rates: approximately bits * ber.
  EXPECT_NEAR(packet_error_probability(1e-9, 1000), 8e-6, 1e-7);
  // Monotone in size.
  EXPECT_LT(packet_error_probability(1e-6, 100),
            packet_error_probability(1e-6, 1000));
}

}  // namespace
}  // namespace dash::net

// Token-ring tests: bounded media access, round-robin fairness, lazy token
// parking, and the physical broadcast property.
namespace dash::net {
namespace {

TEST(TokenRing, DeliversBetweenStations) {
  sim::Simulator sim;
  TokenRingNetwork ring(sim, token_ring_traits(), 1);
  ring.attach(1, [](Packet) {});
  std::vector<std::string> got;
  ring.attach(2, [&](Packet p) { got.push_back(to_string(p.payload)); });
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = to_bytes("around the ring");
  EXPECT_TRUE(ring.send(std::move(p)));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "around the ring");
}

TEST(TokenRing, IdleRingParksTheToken) {
  sim::Simulator sim;
  TokenRingNetwork ring(sim, token_ring_traits(), 1);
  ring.attach(1, [](Packet) {});
  ring.attach(2, [](Packet) {});
  ring.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();  // must terminate: the token parks when queues drain
  EXPECT_EQ(ring.stats().delivered, 1u);
  // Another send later still works (token resumes).
  ring.send(make_packet(2, 1, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(ring.stats().delivered, 2u);
}

TEST(TokenRing, AccessDelayBoundedByRotationUnderSaturation) {
  // Every station saturates; each station's head frame must still be
  // transmitted within one worst-case rotation of its enqueue — the
  // deterministic media-access property the ring exists for.
  sim::Simulator sim;
  TokenRingNetwork::RingConfig cfg;
  cfg.token_holding_time = msec(1);
  TokenRingNetwork ring(sim, token_ring_traits("ring", 4, cfg), 1, cfg);

  constexpr int kStations = 4;
  Samples delays_ms;
  for (HostId h = 1; h <= kStations; ++h) {
    ring.attach(h, [&, h](Packet p) {
      delays_ms.add(to_millis(sim.now() - p.deadline));  // deadline reused as stamp
    });
  }
  // Each station offers less than its token share (THT / rotation of the
  // ring bandwidth), so queues stay bounded and the only delay is media
  // access — which the rotation bound must cover.
  for (HostId h = 1; h <= kStations; ++h) {
    for (int i = 0; i < 50; ++i) {
      sim.at(msec(5 * i) + usec(137 * static_cast<int>(h)), [&ring, h, &sim] {
        Packet p = make_packet(h, (h % kStations) + 1, 400, 0);
        p.deadline = sim.now();  // stamp enqueue time in the deadline field
        ring.send(std::move(p));
      });
    }
  }
  sim.run();
  ASSERT_GT(delays_ms.count(), 150u);
  const double bound_ms = to_millis(ring.access_bound());
  EXPECT_LE(delays_ms.max(), bound_ms)
      << "a frame exceeded the deterministic ring access bound";
}

TEST(TokenRing, RoundRobinFairnessUnderSaturation) {
  sim::Simulator sim;
  TokenRingNetwork ring(sim, token_ring_traits(), 1);
  std::map<HostId, int> delivered_from;
  for (HostId h = 1; h <= 3; ++h) {
    ring.attach(h, [&](Packet p) { ++delivered_from[p.src]; });
  }
  // All three stations offer identical load.
  for (HostId h = 1; h <= 3; ++h) {
    for (int i = 0; i < 60; ++i) {
      sim.at(usec(400 * i), [&ring, h] {
        ring.send(make_packet(h, (h % 3) + 1, 500, kTimeNever));
      });
    }
  }
  sim.run();
  ASSERT_EQ(delivered_from.size(), 3u);
  const int a = delivered_from[1], b = delivered_from[2], c = delivered_from[3];
  EXPECT_NEAR(a, b, 3);
  EXPECT_NEAR(b, c, 3);
}

TEST(TokenRing, BroadcastAndTaps) {
  sim::Simulator sim;
  TokenRingNetwork ring(sim, token_ring_traits(), 1);
  int received = 0;
  for (HostId h = 1; h <= 4; ++h) {
    ring.attach(h, [&](Packet) { ++received; });
  }
  Eavesdropper eve(ring);
  ring.send(make_packet(1, kBroadcast, 64, kTimeNever));
  sim.run();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(eve.count(), 1u);  // the tap saw the circulating frame
}

/// Hosts 1..n, each running the DASH stack, on a token ring.
node::World<TokenRingNetwork> ring_world(NetworkTraits traits, int hosts) {
  return node::World<TokenRingNetwork>(
      {[traits](sim::Simulator& sim) {
        return std::make_unique<TokenRingNetwork>(sim, traits, 1);
      }},
      node::host_ids(hosts));
}

TEST(TokenRing, WorksUnderNetRmsAndSt) {
  // The §3.1 claim in action: the unchanged upper layers run over the
  // third network type.
  auto world = ring_world(token_ring_traits(), 2);

  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream =
      world.st(1).create(dash::testing::loose_request(16 * 1024, 2048), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  rms::Message m;
  m.data = patterned_bytes(2000, 3);  // bigger than an Ethernet frame: ring fits it
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();
  ASSERT_EQ(inbox.delivered(), 1u);
  EXPECT_EQ(inbox.poll()->data.size(), 2000u);
  // No fragmentation needed: the ring's 4 KB frames carried it whole.
  EXPECT_EQ(world.st(1).stats().fragments_sent, 0u);
}

TEST(TokenRing, DownNotifiesAndDrops) {
  sim::Simulator sim;
  TokenRingNetwork ring(sim, token_ring_traits(), 1);
  ring.attach(1, [](Packet) {});
  int delivered = 0;
  ring.attach(2, [&](Packet) { ++delivered; });
  bool notified = false;
  ring.on_down([&] { notified = true; });
  ring.set_down(true);
  EXPECT_TRUE(notified);
  EXPECT_FALSE(ring.send(make_packet(1, 2, 100, kTimeNever)));
  sim.run();
  EXPECT_EQ(delivered, 0);
}

}  // namespace
}  // namespace dash::net

// Deterministic RMS over the token ring: the rotation-inclusive delay
// floor governs admission (§2.3 on the second medium).
namespace dash::net {
namespace {

TEST(TokenRing, DeterministicBoundRespectsRotationFloor) {
  auto world = ring_world(token_ring_traits("ring", 4), 2);
  netrms::NetRmsFabric& fabric = *world.fabric;

  rms::Params p;
  p.capacity = 4 * 1024;
  p.max_message_size = 512;
  p.delay.type = rms::BoundType::kDeterministic;
  p.delay.a = msec(1);  // below the ring's rotation-inclusive floor
  p.delay.b_per_byte = usec(10);
  p.bit_error_rate = 1.0;
  auto too_tight = fabric.negotiate({p, p});
  ASSERT_FALSE(too_tight.ok());

  p.delay.a = msec(30);  // above the ~5.2 ms floor for 4 stations
  auto feasible = fabric.negotiate({p, p});
  ASSERT_TRUE(feasible.ok()) << feasible.error().message;
  EXPECT_GE(feasible.value().delay.a, world.network->traits().propagation_delay);
}

TEST(TokenRing, DeterministicStreamMeetsBoundBesideTraffic) {
  auto world = ring_world(token_ring_traits("ring", 3), 3);
  sim::Simulator& sim = world.sim;
  TokenRingNetwork& ring = *world.network;
  netrms::NetRmsFabric& fabric = *world.fabric;

  rms::Port port;
  world.node(2).ports.bind(10, &port);
  rms::Params p;
  p.capacity = 4 * 1024;
  p.max_message_size = 256;
  p.delay.type = rms::BoundType::kDeterministic;
  p.delay.a = msec(30);
  p.delay.b_per_byte = usec(10);
  p.bit_error_rate = 1.0;
  auto stream = fabric.create(1, {p, p}, {2, 10});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  const Time bound = stream.value()->params().delay.bound_for(160);

  // Station 3 keeps the ring busy with best-effort traffic.
  for (int i = 0; i < 400; ++i) {
    sim.at(msec(2 * i), [&ring, &sim] {
      Packet junk;
      junk.src = 3;
      junk.dst = 2;
      junk.deadline = sim.now() + sec(1);
      junk.payload = patterned_bytes(1400, 1);
      ring.send(std::move(junk));
    });
  }

  int late = 0, delivered = 0;
  port.set_handler([&](rms::Message m) {
    ++delivered;
    if (sim.now() - m.sent_at > bound) ++late;
  });
  for (int i = 0; i < 100; ++i) {
    sim.at(msec(5 + 8 * i), [&stream] {
      rms::Message m;
      m.data = patterned_bytes(160);
      (void)stream.value()->send(std::move(m));
    });
  }
  sim.run();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(late, 0) << "deterministic ring bound violated under load";
}

}  // namespace
}  // namespace dash::net

// Observability accessors: backlog/stats surfaces used by operators.
namespace dash::net {
namespace {

TEST(Observability, EthernetInterfaceBacklog) {
  sim::Simulator sim;
  EthernetNetwork net(sim, ethernet_traits(), 1);
  net.attach(1, [](Packet) {});
  net.attach(2, [](Packet) {});
  for (int i = 0; i < 5; ++i) net.send(make_packet(1, 2, 1000, kTimeNever));
  // One packet seized the medium; the rest are queued at host 1.
  EXPECT_GE(net.interface_backlog(1), 3u * 1000u);
  EXPECT_EQ(net.interface_backlog(2), 0u);
  EXPECT_EQ(net.interface_backlog(99), 0u);  // unknown host: zero, no crash
  sim.run();
  EXPECT_EQ(net.interface_backlog(1), 0u);
}

TEST(Observability, TrunkStatsAndBacklog) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1}, {2});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});
  for (int i = 0; i < 20; ++i) net->send(make_packet(1, 2, 500, kTimeNever));
  sim.run_until(msec(25));
  const SimplexLink::Stats* stats = net->trunk_stats(0, 1);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->sent, 0u);
  EXPECT_EQ(net->trunk_stats(0, 99), nullptr);
  sim.run();
  EXPECT_EQ(net->trunk_backlog(0, 1), 0u);
  EXPECT_EQ(net->trunk_stats(0, 1)->delivered, 20u);
}

// --------------------------------------------------- Internet drop causes

TEST(InternetDrops, NoRouteCountsPartitionAndUnknownHost) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1}, {2});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});

  net->set_trunk_down(0, 1, true);
  net->send(make_packet(1, 2, 100, kTimeNever));  // partitioned
  net->send(make_packet(1, 99, 100, kTimeNever)); // unknown destination
  sim.run();
  EXPECT_EQ(net->drop_stats().no_route, 2u);
  EXPECT_EQ(net->drop_stats().trunk_full, 0u);

  net->set_trunk_down(0, 1, false);
  net->send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(net->drop_stats().no_route, 2u);  // repaired: no new drops
  EXPECT_EQ(net->stats().delivered, 1u);
}

TEST(InternetDrops, TrunkFullCountsGatewayOverflow) {
  sim::Simulator sim;
  auto net = make_dumbbell(sim, internet_traits(), 1, {1}, {2});
  net->attach(1, [](Packet) {});
  net->attach(2, [](Packet) {});
  // 500 B / ms = 4 Mb/s into a 1.5 Mb/s trunk with a 32 kB buffer: the
  // gateway queue must overflow well before 200 packets.
  for (int i = 0; i < 200; ++i) {
    sim.after(msec(i), [&net, i] {
      net->send(make_packet(1, 2, 500, kTimeNever, 0, 5));
      (void)i;
    });
  }
  sim.run();
  EXPECT_GT(net->drop_stats().trunk_full, 0u);
  EXPECT_EQ(net->drop_stats().access, 0u);
  EXPECT_EQ(net->drop_stats().no_route, 0u);
}

TEST(InternetDrops, AccessCountsLastHopOverflow) {
  sim::Simulator sim;
  InternetNetwork net(sim, internet_traits(), 1);
  const auto r0 = net.add_router(usec(1));
  const auto r1 = net.add_router(usec(1));
  SimplexLink::Config fat;
  fat.bits_per_second = 100'000'000;
  fat.propagation_delay = usec(10);
  fat.discipline = Discipline::kDeadline;
  fat.buffer_bytes = 1 << 20;
  net.add_trunk(r0, r1, fat);
  SimplexLink::Config thin = fat;
  thin.bits_per_second = 1'000'000;
  thin.buffer_bytes = 2000;  // the victim's access line
  for (HostId h : {1, 3, 4}) net.attach_host(h, r0, fat);
  net.attach_host(2, r1, thin);
  for (HostId h : {1, 2, 3, 4}) net.attach(h, [](Packet) {});
  for (int i = 0; i < 30; ++i) {
    for (HostId h : {1, 3, 4}) {
      net.send(make_packet(h, 2, 500, kTimeNever, 0, h));
    }
  }
  sim.run();
  EXPECT_GT(net.drop_stats().access, 0u);
}

TEST(Internet, EqualCostPathsTieBreakToOneTrunk) {
  sim::Simulator sim;
  InternetNetwork net(sim, internet_traits(), 1);
  // Diamond of gateways: in–up–out and in–dn–out are equally short.
  const auto in = net.add_router(usec(1));
  const auto up = net.add_router(usec(1));
  const auto dn = net.add_router(usec(1));
  const auto out = net.add_router(usec(1));
  auto trunk = internet_trunk_config(net.traits(), Discipline::kDeadline);
  trunk.bits_per_second = 100'000'000;
  net.add_trunk(in, up, trunk);
  net.add_trunk(in, dn, trunk);
  net.add_trunk(up, out, trunk);
  net.add_trunk(dn, out, trunk);
  SimplexLink::Config access = trunk;
  net.attach_host(1, in, access);
  net.attach_host(2, out, access);
  net.attach(1, [](Packet) {});
  std::uint64_t delivered = 0;
  net.attach(2, [&](Packet) { ++delivered; });

  // Every stream takes the lowest-id next hop: the whole flow set rides
  // in→up, and in→dn stays idle.
  for (std::uint64_t s = 100; s < 140; ++s) {
    net.send(make_packet(1, 2, 200, kTimeNever, 0, s));
  }
  sim.run();
  EXPECT_EQ(delivered, 40u);
  EXPECT_EQ(net.trunk_stats(in, up)->sent, 40u);
  EXPECT_EQ(net.trunk_stats(in, dn)->sent, 0u);

  // Losing that trunk moves new packets onto the equal-cost survivor.
  net.set_trunk_down(in, up, true);
  for (std::uint64_t s = 100; s < 140; ++s) {
    net.send(make_packet(1, 2, 200, kTimeNever, 0, s));
  }
  sim.run();
  EXPECT_EQ(delivered, 80u);
  EXPECT_EQ(net.trunk_stats(in, up)->sent, 40u);
  EXPECT_EQ(net.trunk_stats(in, dn)->sent, 40u);
  EXPECT_EQ(net.route_hops(1, 2), 2u);
}

TEST(Internet, TrunkAddAfterTrafficShortensRoute) {
  sim::Simulator sim;
  InternetNetwork net(sim, internet_traits(), 1);
  const auto a = net.add_router(usec(1));
  const auto b = net.add_router(usec(1));
  const auto c = net.add_router(usec(1));
  auto trunk = internet_trunk_config(net.traits(), Discipline::kDeadline);
  net.add_trunk(a, b, trunk);
  net.add_trunk(b, c, trunk);
  net.attach_host(1, a, trunk);
  net.attach_host(2, c, trunk);
  net.attach(1, [](Packet) {});
  std::uint64_t delivered = 0;
  net.attach(2, [&](Packet) { ++delivered; });
  net.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(net.route_hops(1, 2), 2u);
  const std::uint64_t rebuilds = net.route_recomputes();

  net.add_trunk(a, c, trunk);  // rebuilt on the next lookup, mid-lifetime
  net.send(make_packet(1, 2, 100, kTimeNever));
  sim.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.route_hops(1, 2), 1u);
  EXPECT_EQ(net.trunk_stats(a, c)->sent, 1u);
  // One topology change, one rebuild, however many lookups follow it.
  EXPECT_EQ(net.route_recomputes(), rebuilds + 1);
}

TEST(Observability, TokenRingStationBacklogAndRotations) {
  sim::Simulator sim;
  TokenRingNetwork ring(sim, token_ring_traits(), 1);
  ring.attach(1, [](Packet) {});
  ring.attach(2, [](Packet) {});
  for (int i = 0; i < 4; ++i) ring.send(make_packet(1, 2, 400, kTimeNever));
  EXPECT_GT(ring.station_backlog(1), 0u);
  sim.run();
  EXPECT_EQ(ring.station_backlog(1), 0u);
  EXPECT_GT(ring.token_rotations(), 0u);
}

}  // namespace
}  // namespace dash::net
