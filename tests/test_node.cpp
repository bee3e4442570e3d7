// Tests for the top-level DashNode bundle and its World assembly, and the
// ST's event tracing.
#include <gtest/gtest.h>

#include "net/ethernet.h"
#include "node/node.h"
#include "sim/trace.h"
#include "test_helpers.h"

namespace dash {
namespace {

using dash::testing::st_world;

// ----------------------------------------------------------------- DashNode

TEST(DashNode, StreamEndToEnd) {
  auto world = st_world(2);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream =
      world.node(1).st->create(dash::testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  rms::Message m;
  m.data = to_bytes("via DashNode");
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();
  ASSERT_EQ(inbox.delivered(), 1u);
  EXPECT_EQ(to_string(inbox.poll()->data), "via DashNode");
}

TEST(DashNode, RkomLazilyConstructedAndWorks) {
  auto world = st_world(2);
  world.node(2).rkom().register_operation(1, {[](BytesView in) {
    return Bytes(in.begin(), in.end());
  }, 0});
  std::string reply;
  world.node(1).rkom().call(2, 1, to_bytes("ping"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    reply = to_string(r.value());
  });
  world.sim.run_until(sec(5));
  EXPECT_EQ(reply, "ping");
}

TEST(DashNode, ExposesComponents) {
  sim::Simulator sim;
  node::DashNode node(sim, 7);
  EXPECT_EQ(node.id, 7u);
  EXPECT_EQ(node.st->host(), 7u);
  EXPECT_EQ(node.cpu->policy(), sim::CpuPolicy::kEdf);
}

TEST(DashNode, UnjoinedNodeRejectsStreams) {
  sim::Simulator sim;
  node::DashNode node(sim, 1);
  auto stream = node.st->create(dash::testing::loose_request(), {2, 50});
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.error().code, Errc::kNoRoute);
}

// -------------------------------------------------------- assembly contract

TEST(World, TwoMediaGiveEveryNodeAPathManagerInStOrder) {
  auto world = dash::testing::two_net_world(3);
  const std::vector<netrms::NetRmsFabric*> order = {world.media[0].fabric.get(),
                                                    world.media[1].fabric.get()};
  for (const auto& n : world.nodes) {
    ASSERT_NE(n->path, nullptr);
    EXPECT_EQ(n->st->stream_observer(), n->path.get());
    EXPECT_EQ(n->st->networks(), order);
  }
}

TEST(World, OneMediumGivesNoPathManager) {
  auto world = st_world(3);
  for (const auto& n : world.nodes) {
    EXPECT_EQ(n->path, nullptr);
    EXPECT_EQ(n->st->stream_observer(), nullptr);
  }
}

TEST(World, DisabledPathConfigGivesNoManagerOnTwoMedia) {
  // The no-failover row of the C11 bench.
  path::PathConfig pc;
  pc.enabled = false;
  auto world = dash::testing::two_net_world(2, net::ethernet_traits("eth-a"),
                                            net::ethernet_traits("eth-b"), pc);
  for (const auto& n : world.nodes) {
    EXPECT_EQ(n->path, nullptr);
    EXPECT_EQ(n->st->stream_observer(), nullptr);
    EXPECT_EQ(n->st->networks().size(), 2u);
  }
}

// ------------------------------------------------------------------- trace

TEST(StTrace, RecordsStreamLifecycle) {
  auto world = st_world(2);
  sim::Trace trace;
  world.node(1).st->set_trace(&trace);

  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream =
      world.node(1).st->create(dash::testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  rms::Message m;
  m.data = to_bytes("traced");
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();
  stream.value()->close();

  EXPECT_EQ(trace.count("st.create"), 1u);
  EXPECT_EQ(trace.count("st.channel"), 1u);   // one data channel created
  EXPECT_EQ(trace.count("st.auth"), 1u);      // one challenge
  EXPECT_EQ(trace.count("st.establish"), 1u);
  EXPECT_GE(trace.count("st.flush"), 1u);
  EXPECT_EQ(trace.count("st.close"), 1u);

  // Causality: create precedes establish precedes close.
  const auto& records = trace.records();
  auto find_first = [&](std::string_view cat) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].category == cat) return i;
    }
    return records.size();
  };
  EXPECT_LT(find_first("st.create"), find_first("st.establish"));
  EXPECT_LT(find_first("st.establish"), find_first("st.close"));
}

TEST(StTrace, RecordsFragmentationAndReassembly) {
  auto world = st_world(2);
  sim::Trace tx_trace, rx_trace;
  world.node(1).st->set_trace(&tx_trace);
  world.node(2).st->set_trace(&rx_trace);

  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream = world.node(1).st->create(
      dash::testing::loose_request(64 * 1024, 16 * 1024), {2, 50});
  ASSERT_TRUE(stream.ok());
  rms::Message m;
  m.data = patterned_bytes(6000, 1);
  ASSERT_TRUE(stream.value()->send(std::move(m)).ok());
  world.sim.run();

  EXPECT_EQ(tx_trace.count("st.frag"), 1u);
  EXPECT_EQ(rx_trace.count("st.reassemble"), 1u);
  EXPECT_EQ(inbox.delivered(), 1u);
}

TEST(StTrace, ElisionVisibleInTrace) {
  auto traits = net::ethernet_traits();
  traits.trusted = true;
  auto world = st_world(2, traits);
  sim::Trace trace;
  world.node(1).st->set_trace(&trace);

  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto request = dash::testing::loose_request();
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  auto stream = world.node(1).st->create(request, {2, 50});
  ASSERT_TRUE(stream.ok());
  world.sim.run();

  ASSERT_EQ(trace.count("st.auth"), 1u);
  bool saw_elided = false;
  for (const auto& r : trace.records()) {
    if (r.category == "st.auth" && r.detail.find("elided") != std::string::npos) {
      saw_elided = true;
    }
  }
  EXPECT_TRUE(saw_elided);
}

TEST(StTrace, DetachStopsRecording) {
  auto world = st_world(2);
  sim::Trace trace;
  world.node(1).st->set_trace(&trace);
  world.node(1).st->set_trace(nullptr);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream =
      world.node(1).st->create(dash::testing::loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  world.sim.run();
  EXPECT_TRUE(trace.records().empty());
}

}  // namespace
}  // namespace dash
