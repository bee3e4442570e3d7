// Tests for the §3.3 session abstraction: RKOM rendezvous, duplex ST RMS,
// parameter inheritance, rejection paths, and real-time duplex use.
#include <gtest/gtest.h>

#include "session/session.h"
#include "telemetry/ledger.h"
#include "test_helpers.h"
#include "workload/workload.h"

namespace dash::session {
namespace {

using dash::testing::st_world;

struct SessionWorld {
  node::World<net::EthernetNetwork> world = st_world(2);
  std::unique_ptr<rkom::RkomNode> rkom1, rkom2;
  std::unique_ptr<SessionHost> host1, host2;

  SessionWorld() {
    rkom1 = std::make_unique<rkom::RkomNode>(world.st(1), world.node(1).ports);
    rkom2 = std::make_unique<rkom::RkomNode>(world.st(2), world.node(2).ports);
    host1 = std::make_unique<SessionHost>(world.st(1), world.node(1).ports, *rkom1);
    host2 = std::make_unique<SessionHost>(world.st(2), world.node(2).ports, *rkom2);
  }
};

rms::Request duplex_request() {
  rms::Params desired;
  desired.capacity = 16 * 1024;
  desired.max_message_size = 1024;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(30);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 1024;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return {desired, acceptable};
}

TEST(Session, ConnectAndExchangeBothWays) {
  SessionWorld w;

  std::unique_ptr<Session> server_session;
  w.host2->listen("echo", [&](std::unique_ptr<Session> s) {
    server_session = std::move(s);
    server_session->on_message([&](rms::Message m) {
      Bytes reply = to_bytes("re: " + dash::to_string(m.data));
      (void)server_session->send(std::move(reply));
    });
  });

  std::unique_ptr<Session> client_session;
  std::string got;
  w.host1->connect(2, "echo", duplex_request(), [&](Result<std::unique_ptr<Session>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    client_session = std::move(r).value();
    client_session->on_message([&](rms::Message m) { got = dash::to_string(m.data); });
    (void)client_session->send(to_bytes("hello session"));
  });
  w.world.sim.run_until(sec(5));

  ASSERT_NE(server_session, nullptr);
  ASSERT_NE(client_session, nullptr);
  EXPECT_EQ(got, "re: hello session");
  EXPECT_EQ(client_session->peer(), 2u);
  EXPECT_EQ(server_session->peer(), 1u);
}

TEST(Session, UnknownServiceRefused) {
  SessionWorld w;
  bool failed = false;
  w.host1->connect(2, "no-such-service", duplex_request(),
                   [&](Result<std::unique_ptr<Session>> r) {
                     EXPECT_FALSE(r.ok());
                     failed = true;
                   });
  w.world.sim.run_until(sec(5));
  EXPECT_TRUE(failed);
}

TEST(Session, UnlistenStopsAccepting) {
  SessionWorld w;
  w.host2->listen("svc", [](std::unique_ptr<Session>) { FAIL() << "accepted"; });
  w.host2->unlisten("svc");
  bool failed = false;
  w.host1->connect(2, "svc", duplex_request(),
                   [&](Result<std::unique_ptr<Session>> r) {
                     EXPECT_FALSE(r.ok());
                     failed = true;
                   });
  w.world.sim.run_until(sec(5));
  EXPECT_TRUE(failed);
}

TEST(Session, ParametersInheritedByBothDirections) {
  SessionWorld w;
  std::unique_ptr<Session> server_session;
  w.host2->listen("rt", [&](std::unique_ptr<Session> s) { server_session = std::move(s); });

  auto request = duplex_request();
  request.desired.delay.a = msec(25);
  std::unique_ptr<Session> client_session;
  w.host1->connect(2, "rt", request, [&](Result<std::unique_ptr<Session>> r) {
    ASSERT_TRUE(r.ok());
    client_session = std::move(r).value();
  });
  w.world.sim.run_until(sec(5));
  ASSERT_NE(client_session, nullptr);
  ASSERT_NE(server_session, nullptr);
  EXPECT_EQ(client_session->params().delay.a, msec(25));
  EXPECT_EQ(server_session->params().delay.a, msec(25));
  EXPECT_EQ(client_session->params().max_message_size, 1024u);
}

TEST(Session, DuplexVoiceCallMeetsBoundsBothWays) {
  // The session abstraction carrying what it was designed for: a duplex
  // real-time voice call established with one connect().
  SessionWorld w;
  // One account per direction, opened once the session has negotiated.
  telemetry::GuaranteeLedger ledger;
  constexpr std::uint64_t kUp = 1, kDown = 2;

  std::unique_ptr<Session> callee;
  w.host2->listen("voice", [&](std::unique_ptr<Session> s) {
    callee = std::move(s);
    callee->on_message([&](rms::Message m) {
      ledger.on_delivery(kUp, w.world.sim.now() - m.sent_at, m.size());
    });
  });

  std::unique_ptr<Session> caller;
  auto request = workload::voice_request(msec(40));
  w.host1->connect(2, "voice", request, [&](Result<std::unique_ptr<Session>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    caller = std::move(r).value();
    caller->on_message([&](rms::Message m) {
      ledger.on_delivery(kDown, w.world.sim.now() - m.sent_at, m.size());
    });
  });
  w.world.sim.run_until(sec(1));
  ASSERT_NE(caller, nullptr);
  ASSERT_NE(callee, nullptr);
  const telemetry::StreamAccount& up_account =
      ledger.open(kUp, "up", caller->params(), 1, 2);
  const telemetry::StreamAccount& down_account =
      ledger.open(kDown, "down", callee->params(), 2, 1);

  workload::PacedSource up(w.world.sim, workload::kVoiceFrameInterval,
                           workload::kVoiceFrameBytes,
                           [&](Bytes f) { (void)caller->send(std::move(f)); });
  workload::PacedSource down(w.world.sim, workload::kVoiceFrameInterval,
                             workload::kVoiceFrameBytes,
                             [&](Bytes f) { (void)callee->send(std::move(f)); });
  up.start();
  down.start();
  w.world.sim.run_until(sec(6));
  up.stop();
  down.stop();
  w.world.sim.run_for(msec(200));

  EXPECT_GE(up_account.delivered, 240u);
  EXPECT_GE(down_account.delivered, 240u);
  EXPECT_LT(up_account.miss_fraction(), 0.01);
  EXPECT_LT(down_account.miss_fraction(), 0.01);
}

TEST(Session, FailureSurfacesThroughTheSession) {
  SessionWorld w;
  std::unique_ptr<Session> server_session;
  w.host2->listen("svc", [&](std::unique_ptr<Session> s) { server_session = std::move(s); });
  std::unique_ptr<Session> client_session;
  w.host1->connect(2, "svc", duplex_request(), [&](Result<std::unique_ptr<Session>> r) {
    ASSERT_TRUE(r.ok());
    client_session = std::move(r).value();
  });
  w.world.sim.run_until(sec(2));
  ASSERT_NE(client_session, nullptr);

  bool notified = false;
  client_session->on_failure([&](const Error&) { notified = true; });
  w.world.network->set_down(true);
  EXPECT_TRUE(notified);
  EXPECT_TRUE(client_session->failed());
  EXPECT_FALSE(client_session->send(to_bytes("late")).ok());
}

}  // namespace
}  // namespace dash::session

// Session survival under network death (DESIGN.md §11): on a multi-network
// host the path manager rebinds both the RKOM rendezvous streams and the
// session's own RMS, so established sessions keep delivering and new
// rendezvous succeed after a network dies.
namespace dash::session {
namespace {

using dash::testing::two_net_world;

TEST(Session, SurvivesNetworkDeathAndStillAcceptsNewRendezvous) {
  auto world = two_net_world(2);
  rkom::RkomNode rkom1(world.st(1), world.node(1).ports);
  rkom::RkomNode rkom2(world.st(2), world.node(2).ports);
  SessionHost host1(world.st(1), world.node(1).ports, rkom1);
  SessionHost host2(world.st(2), world.node(2).ports, rkom2);

  rms::Request request;
  request.desired.capacity = 16 * 1024;
  request.desired.max_message_size = 1024;
  request.desired.quality.reliable = true;
  request.desired.delay.type = rms::BoundType::kBestEffort;
  request.desired.delay.a = msec(30);
  request.desired.delay.b_per_byte = usec(10);
  request.desired.bit_error_rate = 1e-6;
  request.acceptable = request.desired;
  request.acceptable.capacity = 1024;
  request.acceptable.delay.a = sec(5);
  request.acceptable.bit_error_rate = 1.0;

  std::unique_ptr<Session> server_session;
  std::vector<std::string> server_got;
  host2.listen("svc", [&](std::unique_ptr<Session> s) {
    server_session = std::move(s);
    server_session->on_message(
        [&](rms::Message m) { server_got.push_back(dash::to_string(m.data)); });
  });

  std::unique_ptr<Session> client_session;
  std::vector<std::string> client_got;
  host1.connect(2, "svc", request, [&](Result<std::unique_ptr<Session>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    client_session = std::move(r).value();
    client_session->on_message(
        [&](rms::Message m) { client_got.push_back(dash::to_string(m.data)); });
  });
  world.sim.run_until(msec(300));
  ASSERT_NE(client_session, nullptr);
  ASSERT_NE(server_session, nullptr);

  ASSERT_TRUE(client_session->send(to_bytes("up-before")).ok());
  ASSERT_TRUE(server_session->send(to_bytes("down-before")).ok());
  world.sim.run_until(msec(600));

  world.network->set_down(true);
  world.sim.run_until(sec(2));

  // Both directions keep working after the death: the path manager moved
  // the session RMS (and the RKOM channel underneath) to network B.
  EXPECT_FALSE(client_session->failed());
  EXPECT_FALSE(server_session->failed());
  ASSERT_TRUE(client_session->send(to_bytes("up-after")).ok());
  ASSERT_TRUE(server_session->send(to_bytes("down-after")).ok());
  world.sim.run_until(sec(4));

  ASSERT_EQ(server_got.size(), 2u);
  EXPECT_EQ(server_got[0], "up-before");
  EXPECT_EQ(server_got[1], "up-after");
  ASSERT_EQ(client_got.size(), 2u);
  EXPECT_EQ(client_got[0], "down-before");
  EXPECT_EQ(client_got[1], "down-after");

  // A brand-new rendezvous after the death lands on the survivor.
  std::unique_ptr<Session> second;
  host1.connect(2, "svc", request, [&](Result<std::unique_ptr<Session>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    second = std::move(r).value();
  });
  world.sim.run_until(sec(6));
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->failed());
}

}  // namespace
}  // namespace dash::session

// Robustness: session rendezvous across a lossy WAN (RKOM's retries carry
// the handshake through).
namespace dash::session {
namespace {

TEST(Session, ConnectsAcrossLossyWan) {
  auto traits = net::internet_traits();
  traits.bit_error_rate = 2e-6;
  auto wan = dash::testing::wan_world({1}, {2}, traits, /*seed=*/3);
  rkom::RkomNode rkom1(wan.st(1), wan.node(1).ports);
  rkom::RkomNode rkom2(wan.st(2), wan.node(2).ports);
  SessionHost host1(wan.st(1), wan.node(1).ports, rkom1);
  SessionHost host2(wan.st(2), wan.node(2).ports, rkom2);

  std::unique_ptr<Session> server_session;
  host2.listen("wan-svc", [&](std::unique_ptr<Session> s) {
    server_session = std::move(s);
  });

  rms::Params desired;
  desired.capacity = 8 * 1024;
  desired.max_message_size = 400;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(200);
  desired.delay.b_per_byte = usec(50);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 400;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;

  std::unique_ptr<Session> client_session;
  std::string got;
  host1.connect(2, "wan-svc", {desired, acceptable},
                [&](Result<std::unique_ptr<Session>> r) {
                  ASSERT_TRUE(r.ok()) << r.error().message;
                  client_session = std::move(r).value();
                  client_session->on_message(
                      [&](rms::Message m) { got = dash::to_string(m.data); });
                });
  wan.sim.run_until(sec(10));
  ASSERT_NE(client_session, nullptr);
  ASSERT_NE(server_session, nullptr);
  (void)server_session->send(to_bytes("survived the loss"));
  wan.sim.run_until(sec(20));
  EXPECT_EQ(got, "survived the loss");
}

}  // namespace
}  // namespace dash::session
