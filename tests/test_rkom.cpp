// Tests for RKOM (paper §3.3): the four-stream channel, request/reply,
// retransmission on the high-delay streams, at-most-once execution, and
// the user-level RPC facade.
#include <gtest/gtest.h>

#include <vector>

#include "rkom/rkom.h"
#include "test_helpers.h"

namespace dash::rkom {
namespace {

using dash::testing::st_world;

struct RkomFixture {
  node::World<net::EthernetNetwork> world;
  std::unique_ptr<RkomNode> client;
  std::unique_ptr<RkomNode> server;

  explicit RkomFixture(net::NetworkTraits traits = net::ethernet_traits(),
                       std::uint64_t seed = 42, RkomConfig config = {})
      : world(st_world(2, traits, seed)) {
    client = std::make_unique<RkomNode>(world.st(1), world.node(1).ports, config);
    server = std::make_unique<RkomNode>(world.st(2), world.node(2).ports, config);
  }
};

Bytes echo_upper(BytesView in) {
  Bytes out(in.begin(), in.end());
  for (auto& b : out) {
    const char c = static_cast<char>(b);
    if (c >= 'a' && c <= 'z') b = static_cast<std::byte>(c - 32);
  }
  return out;
}

TEST(Rkom, BasicRequestReply) {
  RkomFixture f;
  f.server->register_operation(1, {echo_upper, 0});

  std::string reply;
  f.client->call(2, 1, to_bytes("hello rkom"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    reply = to_string(r.value());
  });
  f.world.sim.run_until(sec(5));
  EXPECT_EQ(reply, "HELLO RKOM");
  EXPECT_EQ(f.client->stats().replies_received, 1u);
  EXPECT_EQ(f.server->stats().executions, 1u);
}

TEST(Rkom, ReplyCancelsRetryTimerImmediately) {
  RkomFixture f;
  f.server->register_operation(1, {echo_upper, 0});
  bool done = false;
  f.client->call(2, 1, to_bytes("ping"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    done = true;
  });
  f.world.sim.run_until(sec(5));
  ASSERT_TRUE(done);
  // The reply cancelled the call's retransmit timer (it did not stay
  // pending to fire as a no-op), and nothing was retransmitted.
  EXPECT_GT(f.world.sim.stats().timers_cancelled, 0u);
  EXPECT_EQ(f.client->stats().request_retransmissions, 0u);
}

TEST(Rkom, ChannelUsesFourStreams) {
  RkomFixture f;
  f.server->register_operation(1, {echo_upper, 0});
  bool done = false;
  f.client->call(2, 1, to_bytes("x"), [&](Result<Bytes>) { done = true; });
  f.world.sim.run_until(sec(5));
  ASSERT_TRUE(done);
  // Two outgoing ST RMS per side (low + high delay).
  EXPECT_EQ(f.client->channels(), 1u);
  EXPECT_EQ(f.server->channels(), 1u);
  EXPECT_GE(f.world.st(1).stats().st_rms_created, 2u);
  EXPECT_GE(f.world.st(2).stats().st_rms_created, 2u);
}

TEST(Rkom, ManyConcurrentCalls) {
  RkomFixture f;
  f.server->register_operation(7, {[](BytesView in) {
    Bytes out(in.begin(), in.end());
    out.push_back(std::byte{'!'});
    return out;
  }, 0});

  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    f.client->call(2, 7, to_bytes("req" + std::to_string(i)),
                   [&completed, i](Result<Bytes> r) {
                     ASSERT_TRUE(r.ok());
                     EXPECT_EQ(to_string(r.value()), "req" + std::to_string(i) + "!");
                     ++completed;
                   });
  }
  f.world.sim.run_until(sec(10));
  EXPECT_EQ(completed, 50);
}

TEST(Rkom, RetransmissionRecoversFromLoss) {
  auto traits = net::ethernet_traits();
  traits.bit_error_rate = 2e-5;  // heavy loss; requests/replies will vanish
  RkomConfig config;
  config.retry_timeout = msec(80);
  config.max_retries = 10;
  RkomFixture f(traits, /*seed=*/3, config);
  f.server->register_operation(1, {echo_upper, 0});

  int completed = 0, failed = 0;
  for (int i = 0; i < 30; ++i) {
    f.world.sim.at(msec(50 * i), [&f, &completed, &failed] {
      f.client->call(2, 1, to_bytes("payload-payload-payload"),
                     [&](Result<Bytes> r) { r.ok() ? ++completed : ++failed; });
    });
  }
  f.world.sim.run_until(sec(30));
  EXPECT_EQ(completed + failed, 30);
  EXPECT_GT(completed, 25);  // retries push calls through
  EXPECT_GT(f.client->stats().request_retransmissions +
                f.server->stats().reply_retransmissions,
            0u);
}

TEST(Rkom, AtMostOnceExecution) {
  // Force retransmissions by delaying the service: the server must
  // execute each call once even though duplicates arrive.
  RkomConfig config;
  config.retry_timeout = msec(50);
  config.max_retries = 20;  // keep retrying across the slow service time
  RkomFixture f(net::ethernet_traits(), 42, config);
  int executions = 0;
  f.server->register_operation(
      1, {[&executions](BytesView) {
            ++executions;
            return to_bytes("done");
          },
          msec(400) /* slow service straddles several retry timeouts */});

  std::string reply;
  f.client->call(2, 1, to_bytes("once"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    reply = to_string(r.value());
  });
  f.world.sim.run_until(sec(10));
  EXPECT_EQ(reply, "done");
  EXPECT_EQ(executions, 1);
  EXPECT_GT(f.client->stats().request_retransmissions, 0u);
  EXPECT_GT(f.server->stats().duplicate_requests, 0u);
}

TEST(Rkom, TimeoutWhenServerIgnoresOperation) {
  RkomConfig config;
  config.retry_timeout = msec(50);
  config.max_retries = 2;
  RkomFixture f(net::ethernet_traits(), 42, config);
  // No operation registered.
  bool failed = false;
  f.client->call(2, 99, to_bytes("void"), [&](Result<Bytes> r) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::kRmsFailed);
    failed = true;
  });
  f.world.sim.run_until(sec(10));
  EXPECT_TRUE(failed);
  EXPECT_EQ(f.client->stats().timeouts, 1u);
}

TEST(Rkom, UnreachablePeerFailsFast) {
  RkomFixture f;
  bool failed = false;
  f.client->call(99, 1, to_bytes("x"), [&](Result<Bytes> r) {
    EXPECT_FALSE(r.ok());
    failed = true;
  });
  f.world.sim.run_until(sec(1));
  EXPECT_TRUE(failed);
}

TEST(Rkom, ServiceTimeDelaysReply) {
  RkomFixture f;
  f.server->register_operation(1, {echo_upper, msec(100)});
  Time replied_at = -1;
  const Time t0 = f.world.sim.now();
  f.client->call(2, 1, to_bytes("slow"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    replied_at = f.world.sim.now();
  });
  f.world.sim.run_until(sec(5));
  ASSERT_GE(replied_at, 0);
  EXPECT_GE(replied_at - t0, msec(100));
}

TEST(Rkom, ChannelReusedAcrossCalls) {
  RkomFixture f;
  f.server->register_operation(1, {echo_upper, 0});
  int done = 0;
  auto call_again = [&](auto&& self, int remaining) -> void {
    if (remaining == 0) return;
    f.client->call(2, 1, to_bytes("seq"), [&, remaining](Result<Bytes> r) {
      ASSERT_TRUE(r.ok());
      ++done;
      self(self, remaining - 1);
    });
  };
  call_again(call_again, 5);
  f.world.sim.run_until(sec(10));
  EXPECT_EQ(done, 5);
  EXPECT_EQ(f.client->channels(), 1u);
  // ST RMS creation happened once per stream class, not once per call.
  EXPECT_LE(f.world.st(1).stats().st_rms_created, 3u);
}

// ---------------------------------------------------------------- RPC layer

TEST(Rpc, NamedOperations) {
  RkomFixture f;
  RpcServer server(*f.server);
  server.handle("math.square", [](BytesView in) {
    const int x = std::stoi(to_string(in));
    return to_bytes(std::to_string(x * x));
  });

  RpcClient client(*f.client, /*server=*/2);
  std::string result;
  client.call("math.square", to_bytes("12"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    result = to_string(r.value());
  });
  f.world.sim.run_until(sec(5));
  EXPECT_EQ(result, "144");
}

TEST(Rpc, OpIdsAreStableAndDistinct) {
  EXPECT_EQ(RpcServer::op_id("foo"), RpcServer::op_id("foo"));
  EXPECT_NE(RpcServer::op_id("foo"), RpcServer::op_id("bar"));
  EXPECT_NE(RpcServer::op_id("a.b"), RpcServer::op_id("ab"));
}

}  // namespace
}  // namespace dash::rkom

// Rendezvous survival under network death (DESIGN.md §11): with a path
// manager the RKOM channel streams are rebound transparently; without one
// the retry path rebuilds the four-stream channel on a surviving network
// instead of retransmitting into a failed RMS until the call times out.
namespace dash::rkom {
namespace {

using dash::testing::two_net_world;

TEST(Rkom, InFlightCallSurvivesNetworkDeathWithPathManager) {
  auto world = two_net_world(2);
  RkomNode client(world.st(1), world.node(1).ports);
  RkomNode server(world.st(2), world.node(2).ports);
  server.register_operation(1, {[](BytesView in) {
    return Bytes(in.begin(), in.end());
  }, msec(300) /* slow enough that network A dies mid-call */});

  std::string reply;
  int failures = 0;
  world.sim.at(msec(100), [&] {
    client.call(2, 1, to_bytes("mid-flight"), [&](Result<Bytes> r) {
      r.ok() ? (void)(reply = to_string(r.value())) : (void)++failures;
    });
  });
  world.sim.at(msec(200), [&world] { world.network->set_down(true); });
  world.sim.run_until(sec(10));

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(reply, "mid-flight");
  // The channel object survived: its streams were rebound, not rebuilt.
  EXPECT_EQ(client.channels(), 1u);
  // Both sides had streams on the dead network moved over.
  EXPECT_GE(world.node(1).path->stats().failovers +
                world.node(2).path->stats().failovers,
            1u);

  // A fresh call after the death works on the surviving network too.
  std::string second;
  client.call(2, 1, to_bytes("again"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    second = to_string(r.value());
  });
  world.sim.run_until(sec(15));
  EXPECT_EQ(second, "again");
}

TEST(Rkom, InFlightCallSurvivesStreamDeathViaChannelRebuild) {
  // No path manager: the ST fails the channel streams outright when their
  // network dies. The pending call's retry must rebuild the channel on the
  // surviving network — before the fix, retries were silently sent into
  // the failed RMS and the rendezvous timed out.
  path::PathConfig pc;
  pc.enabled = false;
  auto world = two_net_world(2, net::ethernet_traits("eth-a"),
                             net::ethernet_traits("eth-b"), pc);
  RkomConfig config;
  config.retry_timeout = msec(100);
  // The zombie channel on the dead network only reports failure once ST
  // exhausts its own establishment retries (kControlRetries x
  // kControlRetryTimeout = 1.25 s); the call's retry budget must outlast
  // that so a later retry observes the failure and rebuilds.
  config.max_retries = 20;
  RkomNode client(world.st(1), world.node(1).ports, config);
  RkomNode server(world.st(2), world.node(2).ports, config);
  server.register_operation(1, {[](BytesView in) {
    return Bytes(in.begin(), in.end());
  }, 0});

  std::string reply;
  int failures = 0;
  world.sim.at(msec(100), [&] {
    client.call(2, 1, to_bytes("rebuilt"), [&](Result<Bytes> r) {
      r.ok() ? (void)(reply = to_string(r.value())) : (void)++failures;
    });
  });
  // The request is still in the establishment handshake when A dies.
  world.sim.at(msec(100) + usec(1), [&world] { world.network->set_down(true); });
  world.sim.run_until(sec(10));

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(reply, "rebuilt");
  EXPECT_GE(client.stats().channels_reestablished, 1u);
  EXPECT_GT(client.stats().request_retransmissions, 0u);
}

}  // namespace
}  // namespace dash::rkom

// Additional coverage appended: reply-cache expiry, multi-peer channels,
// and large argument payloads (fragmentation through RKOM).
namespace dash::rkom {
namespace {

using dash::testing::st_world;

TEST(Rkom, ReplyCacheExpiresAfterTtl) {
  RkomConfig config;
  config.reply_cache_ttl = msec(200);
  auto world = st_world(2);
  RkomNode client(world.st(1), world.node(1).ports, config);
  RkomNode server(world.st(2), world.node(2).ports, config);
  int executions = 0;
  server.register_operation(1, {[&executions](BytesView) {
    ++executions;
    return to_bytes("ok");
  }, 0});

  bool done = false;
  client.call(2, 1, to_bytes("x"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    done = true;
  });
  world.sim.run_until(sec(1));
  ASSERT_TRUE(done);
  EXPECT_EQ(executions, 1);
  // After the TTL (plus the ack that normally clears it), the cache is
  // empty — the server holds no unbounded at-most-once state.
  world.sim.run_until(sec(5));
  EXPECT_EQ(server.cached_replies(), 0u);
}

TEST(Rkom, DuplicateReplyIsAckedAgain) {
  // A retry timeout shorter than the call's round trip: the client
  // retransmits, the server answers each retransmission with its cached
  // reply, and the client acks every copy it receives. Should the first
  // ack be lost, a later one frees the cached reply before its TTL.
  RkomConfig config;
  config.retry_timeout = msec(1);
  config.max_retries = 100;  // retry until the reply lands, however long
  RkomFixture f(net::ethernet_traits(), 42, config);
  int executions = 0;
  f.server->register_operation(1, {[&executions](BytesView in) {
    ++executions;
    return Bytes(in.begin(), in.end());
  }, 0});

  bool done = false;
  f.client->call(2, 1, to_bytes("x"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    done = true;
  });
  f.world.sim.run_until(sec(1));
  ASSERT_TRUE(done);
  EXPECT_EQ(executions, 1);
  const std::uint64_t resent = f.server->stats().reply_retransmissions;
  ASSERT_GE(resent, 1u);
  EXPECT_EQ(f.client->stats().replies_received, 1u);
  EXPECT_EQ(f.client->stats().acks_sent, 1 + resent);
  EXPECT_EQ(f.server->cached_replies(), 0u);
}

TEST(Rkom, SeparateChannelsPerPeer) {
  auto world = st_world(3);
  RkomNode client(world.st(1), world.node(1).ports);
  RkomNode server_a(world.st(2), world.node(2).ports);
  RkomNode server_b(world.st(3), world.node(3).ports);
  auto echo = [](BytesView in) { return Bytes(in.begin(), in.end()); };
  server_a.register_operation(1, {echo, 0});
  server_b.register_operation(1, {echo, 0});

  int done = 0;
  client.call(2, 1, to_bytes("to A"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(to_string(r.value()), "to A");
    ++done;
  });
  client.call(3, 1, to_bytes("to B"), [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(to_string(r.value()), "to B");
    ++done;
  });
  world.sim.run_until(sec(5));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(client.channels(), 2u);
}

TEST(Rkom, LargeArgumentsFragmentAndReassemble) {
  auto world = st_world(2);
  RkomNode client(world.st(1), world.node(1).ports);
  RkomNode server(world.st(2), world.node(2).ports);
  server.register_operation(1, {[](BytesView in) {
    // Return a digest-sized answer about a large argument.
    return to_bytes(std::to_string(in.size()));
  }, 0});

  std::string reply;
  const Bytes big = patterned_bytes(3500, 42);  // above the frame limit
  client.call(2, 1, big, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    reply = to_string(r.value());
  });
  world.sim.run_until(sec(5));
  EXPECT_EQ(reply, "3500");
  EXPECT_GT(world.st(1).stats().fragments_sent, 1u);
}

TEST(Rkom, CallbacksAreIndependentAcrossOutstandingCalls) {
  auto world = st_world(2);
  RkomNode client(world.st(1), world.node(1).ports);
  RkomNode server(world.st(2), world.node(2).ports);
  // Slow op and fast op; the fast one must not wait for the slow one.
  server.register_operation(1, {[](BytesView) { return to_bytes("slow"); }, msec(300)});
  server.register_operation(2, {[](BytesView) { return to_bytes("fast"); }, 0});

  Time slow_done = -1, fast_done = -1;
  client.call(2, 1, {}, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    slow_done = world.sim.now();
  });
  client.call(2, 2, {}, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    fast_done = world.sim.now();
  });
  world.sim.run_until(sec(5));
  ASSERT_GE(slow_done, 0);
  ASSERT_GE(fast_done, 0);
  EXPECT_LT(fast_done, slow_done);  // no head-of-line blocking in RKOM
}

TEST(Rkom, CallsOnABusyChannelDoNotWaitTheWindow) {
  // Calls every 1 ms keep both directions of the channel busy, so the ST
  // would hold each message for company. Initial requests and replies pass
  // a transmission deadline of now (§2.5, §4.3.1): each call completes
  // inside the piggyback window instead of waiting it out.
  RkomFixture f;
  f.server->register_operation(1, {echo_upper, 0});
  bool warm = false;
  f.client->call(2, 1, to_bytes("warm-up"), [&](Result<Bytes> r) { warm = r.ok(); });
  f.world.sim.run_until(sec(1));
  ASSERT_TRUE(warm);

  constexpr int kCalls = 50;
  std::vector<Time> durations;
  const Time t0 = f.world.sim.now();
  for (int i = 0; i < kCalls; ++i) {
    f.world.sim.at(t0 + msec(i), [&f, &durations] {
      const Time started = f.world.sim.now();
      f.client->call(2, 1, to_bytes("busy"), [&f, &durations, started](Result<Bytes> r) {
        ASSERT_TRUE(r.ok());
        durations.push_back(f.world.sim.now() - started);
      });
    });
  }
  f.world.sim.run_until(t0 + sec(1));
  ASSERT_EQ(durations.size(), static_cast<std::size_t>(kCalls));
  const Time window = st::StConfig{}.piggyback_window;
  for (Time d : durations) EXPECT_LT(d, window);
}

}  // namespace
}  // namespace dash::rkom
