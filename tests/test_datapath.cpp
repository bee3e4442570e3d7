// Tests for the zero-copy datapath (DESIGN.md §9): payload-aliasing safety
// across the Buffer-based send/receive paths, storage sharing between
// network packets and delivered messages, fragment-slice lifetime across
// reassembly discards, and the counting-allocator bounds that pin down the
// "serialize once into an arena" property of the ST send path and the
// event engine's footprint under zero-delay chains.
//
// This binary links dash_alloc_count first, so the global operator
// new/delete are the counting versions.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fault/fault.h"
#include "sim/simulator.h"
#include "st/st.h"
#include "test_helpers.h"
#include "util/alloc_count.h"
#include "util/buffer.h"

namespace dash::st {
namespace {

using dash::testing::st_world;

rms::Request datapath_request(std::uint64_t capacity = 64 * 1024,
                              std::uint64_t mms = 16 * 1024) {
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

// ------------------------------------------------------- aliasing safety

// The ownership rule under test: the sender's source bytes are copied
// exactly once (the gather-write into the arena), so a client that mutates
// its source after send() — even before the simulated CPU stage has
// serialized the message — cannot corrupt the data in flight.
TEST(Datapath, SenderMutationAfterSendCannotCorruptDelivery) {
  // The last size fragments (> one 1500-byte frame).
  for (const std::size_t size : {std::size_t{64}, std::size_t{700},
                                 std::size_t{6000}}) {
    auto world = st_world(2);
    rms::Port port;
    world.node(2).ports.bind(50, &port);
    auto rms = world.st(1).create(datapath_request(), {2, 50});
    ASSERT_TRUE(rms.ok()) << rms.error().message;

    Bytes source = patterned_bytes(size, size);
    const Bytes original = source;
    rms::Message m;
    m.data = source;  // aliasing-safe: assignment from an lvalue copies
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    // Scribble over the client's buffer while the message is still queued
    // behind establishment and the send-side CPU stage.
    for (std::byte& b : source) b = static_cast<std::byte>(0xEE);
    world.sim.run();

    ASSERT_EQ(port.delivered(), 1u) << "size " << size;
    auto delivered = port.poll();
    ASSERT_TRUE(delivered.has_value());
    EXPECT_TRUE(delivered->data == original) << "size " << size;
  }
}

// Receive-side aliasing: a plaintext unfragmented component is delivered as
// a slice of the very packet buffer the network handed up — no copy — and
// a wiretap holding the same packet sees consistent bytes.
TEST(Datapath, DeliveryIsSliceOfPacketBuffer) {
  auto world = st_world(2);
  net::Eavesdropper tap(*world.network);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  rms::Message m;
  m.data = patterned_bytes(900, 1);
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  bool shares = false;
  for (const net::Packet& p : tap.captured()) {
    if (delivered->data.shares_storage(p.payload)) shares = true;
  }
  EXPECT_TRUE(shares) << "delivered payload should alias a captured packet";
}

// Send-side arena property: every fragment packet of one burst is a slice
// of a single allocation.
TEST(Datapath, FragmentBurstSharesOneAllocation) {
  auto world = st_world(2);
  net::Eavesdropper tap(*world.network);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  rms::Message m;
  m.data = patterned_bytes(6000, 2);  // > 1500-byte frames: fragments
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();
  ASSERT_EQ(port.delivered(), 1u);
  ASSERT_GE(world.st(1).stats().fragments_sent, 4u);

  // The largest packets on the wire are the fragment packets.
  std::vector<const net::Packet*> frags;
  for (const net::Packet& p : tap.captured()) {
    if (p.size() > 1000) frags.push_back(&p);
  }
  ASSERT_GE(frags.size(), 4u);
  for (const net::Packet* p : frags) {
    EXPECT_TRUE(p->payload.shares_storage(frags.front()->payload));
  }
}

// ------------------------------------- reassembly lifetime and discards

// Fragment slices hold their packet's storage alive inside the reassembly
// table. Dropping a fragment forces a §4.3 discard when the next message
// lands; the discarded slices must release cleanly and later traffic must
// be delivered intact.
TEST(Datapath, FragmentSlicesSurviveDiscardPartial) {
  auto world = st_world(2);
  // Lossy window covering the first burst's time on the wire: some
  // fragments of the first message die, the follow-up (sent after the
  // window closes) sails through. The seed makes the mix deterministic.
  fault::FaultPlan plan;
  plan.iid_loss(0.5, {msec(10), msec(40)});
  auto& faults = world.with_faults(plan);

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  world.sim.run_until(msec(10));  // establishment done before the window

  rms::Message first;
  first.data = patterned_bytes(6000, 3);
  ASSERT_TRUE(rms.value()->send(std::move(first)).ok());
  world.sim.run_until(msec(40));
  ASSERT_GT(faults.counters().dropped_iid, 0u);
  ASSERT_EQ(port.delivered(), 0u) << "first burst should lose fragments";

  const Bytes follow_up = patterned_bytes(5000, 4);
  rms::Message second;
  second.data = follow_up;
  ASSERT_TRUE(rms.value()->send(std::move(second)).ok());
  world.sim.run();

  EXPECT_GE(world.st(2).stats().partials_discarded, 1u);
  ASSERT_EQ(port.delivered(), 1u);
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->data == follow_up);
}

// invalidate_peer mid-reassembly drops the demux entry and every fragment
// slice it holds; the conversation can then start over from scratch.
TEST(Datapath, FragmentSlicesSurviveInvalidatePeerMidReassembly) {
  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  {
    auto rms = world.st(1).create(datapath_request(), {2, 50});
    ASSERT_TRUE(rms.ok()) << rms.error().message;
    world.sim.run_until(msec(10));
    rms::Message m;
    m.data = patterned_bytes(6000, 5);
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    // A 6000-byte burst spends several milliseconds on a 10 Mb/s wire;
    // stop while only a prefix of the fragments has been parked.
    world.sim.run_until(msec(13));
    rms.value()->close();
  }
  // Receiver forgets the sender mid-reassembly; the parked slices die here.
  world.st(2).invalidate_peer(1);
  world.st(1).invalidate_peer(2);
  world.sim.run();

  auto again = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(again.ok()) << again.error().message;
  const Bytes fresh = patterned_bytes(2000, 6);
  rms::Message m;
  m.data = fresh;
  ASSERT_TRUE(again.value()->send(std::move(m)).ok());
  world.sim.run();

  ASSERT_EQ(port.delivered(), 1u);
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->data == fresh);
}

// --------------------------------------------- counting-allocator bounds

// Pin down the zero-copy claim with the counting allocator: delivering one
// fragmented N-byte message end to end allocates ~2N payload bytes — the
// gather-write into the send arena and the reassembly materialization —
// not the 5-6N of a copy-per-boundary datapath. The bound is deliberately
// loose (3N + slack for container bookkeeping) so it only fails if a
// payload-sized copy sneaks back into the path.
TEST(Datapath, EndToEndAllocationStaysNearTwoCopies) {
  if (!alloc_count::instrumented()) GTEST_SKIP() << "counting allocator absent";

  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;

  // Warm up: establishment, channel creation, and first-use allocations.
  for (int i = 0; i < 4; ++i) {
    rms::Message warm;
    warm.data = patterned_bytes(6000, 7);
    ASSERT_TRUE(rms.value()->send(std::move(warm)).ok());
  }
  world.sim.run();
  ASSERT_EQ(port.delivered(), 4u);
  while (port.poll().has_value()) {
  }

  constexpr std::size_t kN = 12 * 1024;
  const Bytes payload = patterned_bytes(kN, 8);
  alloc_count::Scope scope;
  rms::Message m;
  m.data = payload;  // copy 0: the client's own handoff into the message
  ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
  world.sim.run();
  const std::uint64_t bytes = scope.bytes();

  ASSERT_EQ(port.delivered(), 4u + 1u);  // delivered() is cumulative
  auto delivered = port.poll();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(delivered->data == payload);
  // copy 0 (handoff) + copy 1 (arena gather) + copy 2 (reassembly concat)
  // ≈ 3N, plus ~1.6 KiB of event/container bookkeeping per fragment
  // (currently ~54 KB total, deterministic). The bound sits below 3N + 2·N/3
  // so an extra payload-sized copy (+N ≈ 12 KB) regressing into the path
  // trips it.
  EXPECT_LT(bytes, 3 * kN + 24 * 1024)
      << "end-to-end allocated " << bytes << " B for a " << kN << " B message";
}

// The piggyback path serializes straight into the channel arena: sending a
// small message end to end allocates O(packet) bytes, not multiples of it.
TEST(Datapath, PiggybackSendAllocationIsFlat) {
  if (!alloc_count::instrumented()) GTEST_SKIP() << "counting allocator absent";

  auto world = st_world(2);
  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto rms = world.st(1).create(datapath_request(), {2, 50});
  ASSERT_TRUE(rms.ok()) << rms.error().message;
  for (int i = 0; i < 8; ++i) {
    rms::Message warm;
    warm.data = patterned_bytes(256, 9);
    ASSERT_TRUE(rms.value()->send(std::move(warm)).ok());
    world.sim.run();
  }
  while (port.poll().has_value()) {
  }

  alloc_count::Scope scope;
  for (int i = 0; i < 16; ++i) {
    rms::Message m;
    m.data = patterned_bytes(256, 10);
    ASSERT_TRUE(rms.value()->send(std::move(m)).ok());
    world.sim.run();
  }
  ASSERT_EQ(port.delivered(), 8u + 16u);
  // Steady state is 254 allocations for the 16 messages (~16 each), none of
  // them payload-sized. The bound leaves no room for a copy-heavy path,
  // nor for trace strings formatted while no trace is attached.
  EXPECT_LE(scope.allocations(), 256u)
      << scope.allocations() << " allocations for 16 messages";
}

// A zero-delay chain that runs while a later timer holds the calendar
// wheel's open bucket (the wall-clock driver's steady state, where every
// CPU task is an after(0) event) must not grow that bucket by one entry
// per event: the engine drops the bucket's consumed prefix as it goes.
TEST(Datapath, ZeroDelayChainBehindATimerStaysSmall) {
  if (!alloc_count::instrumented()) GTEST_SKIP() << "counting allocator absent";

  sim::Simulator sim;
  bool fired = false;
  sim.after(msec(1), [&fired] { fired = true; });
  sim.run_until(sim.now());  // the peek opens the timer's bucket

  struct Chain {
    sim::Simulator& sim;
    int left;
    void step() {
      if (--left > 0) sim.after(0, [this] { step(); });
    }
  } chain{sim, 100'000};
  alloc_count::Scope scope;
  sim.after(0, [&chain] { chain.step(); });
  sim.run_until(sim.now());
  const std::uint64_t bytes = scope.bytes();

  EXPECT_EQ(chain.left, 0);
  EXPECT_LT(bytes, 1u << 20) << "a 100000-event chain allocated " << bytes << " B";
  EXPECT_FALSE(fired);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), msec(1));
}

}  // namespace
}  // namespace dash::st
