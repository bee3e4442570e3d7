// Tests for the user-level RMS (paper §3.4): end-process CPU time inside
// the delay bound, deadline-scheduled user processing, and the bound
// algebra across all three RMS levels.
#include <gtest/gtest.h>

#include "telemetry/ledger.h"
#include "test_helpers.h"
#include "userrms/user_rms.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace dash::userrms {
namespace {

using dash::testing::st_world;

rms::Request user_request(Time bound = msec(30)) {
  rms::Params desired;
  desired.capacity = 16 * 1024;
  desired.max_message_size = 1024;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = bound;
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 1024;
  acceptable.delay.a = sec(5);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return {desired, acceptable};
}

/// A UserEndpoint handler that accounts each delivery to `ledger`'s
/// account `id` at the moment the handler runs (§3.4's delivery).
std::function<void(rms::Message)> account_to(telemetry::GuaranteeLedger& ledger,
                                             std::uint64_t id, sim::Simulator& sim) {
  return [&ledger, id, &sim](rms::Message m) {
    ledger.on_delivery(id, sim.now() - m.sent_at, m.size());
  };
}

TEST(UserRms, EndToEndDeliveryThroughUserProcesses) {
  auto world = st_world(2);
  UserConfig config;
  config.send_processing = usec(300);
  config.receive_processing = usec(300);

  auto sender = UserRms::create(world.st(1), *world.node(1).cpu, user_request(),
                                {2, 50}, config);
  ASSERT_TRUE(sender.ok()) << sender.error().message;

  Samples delay_ms;
  std::string last;
  UserEndpoint endpoint(*world.node(2).cpu, world.node(2).ports, 50, config,
                        sender.value()->user_bound(), [&](rms::Message m) {
                          last = dash::to_string(m.data);
                          delay_ms.add(to_millis(world.sim.now() - m.sent_at));
                        });

  rms::Message m;
  m.data = to_bytes("across all levels");
  ASSERT_TRUE(sender.value()->send(std::move(m)).ok());
  world.sim.run();

  EXPECT_EQ(last, "across all levels");
  EXPECT_EQ(endpoint.stats().delivered, 1u);
  // The measured delay includes both declared processing stages.
  EXPECT_GE(delay_ms.max(), to_millis(usec(600)));
}

TEST(UserRms, BoundIncludesProcessingStages) {
  auto world = st_world(2);
  UserConfig config;
  config.send_processing = msec(2);
  config.receive_processing = msec(3);
  auto sender = UserRms::create(world.st(1), *world.node(1).cpu, user_request(msec(30)),
                                {2, 50}, config);
  ASSERT_TRUE(sender.ok());
  // The user-level bound keeps the requested 30 ms; the inner ST bound had
  // the 5 ms of processing subtracted, so the tower adds back up.
  EXPECT_EQ(sender.value()->params().delay.a, msec(30));
  EXPECT_TRUE(rms::compatible(sender.value()->params(), user_request().acceptable));
}

TEST(UserRms, RejectsBoundSmallerThanProcessing) {
  auto world = st_world(2);
  UserConfig config;
  config.send_processing = msec(5);
  config.receive_processing = msec(5);
  auto request = user_request(msec(8));
  request.acceptable.delay.a = msec(8);  // < 10 ms of declared processing
  auto sender = UserRms::create(world.st(1), *world.node(1).cpu, request, {2, 50},
                                config);
  ASSERT_FALSE(sender.ok());
  EXPECT_EQ(sender.error().code, Errc::kIncompatibleParams);
}

TEST(UserRms, MeetsItsBoundOnAnIdleHost) {
  auto world = st_world(2);
  UserConfig config;
  auto sender = UserRms::create(world.st(1), *world.node(1).cpu, user_request(msec(30)),
                                {2, 50}, config);
  ASSERT_TRUE(sender.ok());
  telemetry::GuaranteeLedger ledger;
  ledger.open(1, "user", sender.value()->params(), 1, 2);
  UserEndpoint endpoint(*world.node(2).cpu, world.node(2).ports, 50, config,
                        sender.value()->user_bound(), account_to(ledger, 1, world.sim));
  for (int i = 0; i < 20; ++i) {
    world.sim.after(msec(5 * i), [&] {
      rms::Message m;
      m.data = patterned_bytes(256);
      (void)sender.value()->send(std::move(m));
    });
  }
  world.sim.run();
  EXPECT_EQ(endpoint.stats().delivered, 20u);
  EXPECT_EQ(ledger.find(1)->misses, 0u);
}

TEST(UserRms, ReceiverCpuContentionHandledByDeadlines) {
  // The receiving host's CPU is loaded with lazy user processing; the
  // tight user-level stream must still meet its bound under EDF.
  auto world = st_world(2);

  // Lazy stream with heavy receive processing.
  UserConfig heavy;
  heavy.receive_processing = msec(2);
  auto lazy = UserRms::create(world.st(1), *world.node(1).cpu, user_request(sec(2)),
                              {2, 60}, heavy);
  ASSERT_TRUE(lazy.ok());
  UserEndpoint lazy_endpoint(*world.node(2).cpu, world.node(2).ports, 60, heavy,
                             lazy.value()->user_bound(), {});

  // Tight stream with light processing.
  UserConfig light;
  light.receive_processing = usec(100);
  auto tight = UserRms::create(world.st(1), *world.node(1).cpu, user_request(msec(15)),
                               {2, 61}, light);
  ASSERT_TRUE(tight.ok());
  telemetry::GuaranteeLedger ledger;
  ledger.open(1, "tight", tight.value()->params(), 1, 2);
  UserEndpoint tight_endpoint(*world.node(2).cpu, world.node(2).ports, 61, light,
                              tight.value()->user_bound(), account_to(ledger, 1, world.sim));

  // Lazy load: ~80% of the receiving CPU. Tight probe every 10 ms.
  workload::PacedSource noise(world.sim, usec(2500), 512, [&](Bytes f) {
    rms::Message m;
    m.data = std::move(f);
    (void)lazy.value()->send(std::move(m));
  });
  workload::PacedSource probe(world.sim, msec(10), 128, [&](Bytes f) {
    rms::Message m;
    m.data = std::move(f);
    (void)tight.value()->send(std::move(m));
  });
  noise.start();
  probe.start();
  world.sim.run_until(sec(5));
  noise.stop();
  probe.stop();
  world.sim.run_for(sec(1));

  EXPECT_GE(tight_endpoint.stats().delivered, 490u);
  EXPECT_EQ(ledger.find(1)->misses, 0u)
      << "EDF user-process scheduling must keep the tight stream inside "
         "its bound (§3.4/§4.1)";
  EXPECT_GT(lazy_endpoint.stats().delivered, 0u);
}

TEST(UserRms, TransmissionDeadlineEndsThePiggybackWait) {
  // §4.3.1 one level up: a transmission deadline passed to a user-level
  // send reaches the ST after the sending process's CPU stage, and there
  // caps the message's wait for piggyback company. A lazy ST stream on
  // the same channel keeps the channel busy, so a user message sent
  // without one would wait out the 20 ms window.
  st::StConfig st_config;
  st_config.piggyback_window = msec(20);
  auto world = st_world(2, net::ethernet_traits(), 42, st_config);
  auto sender = UserRms::create(world.st(1), *world.node(1).cpu, user_request(msec(100)),
                                {2, 50}, {});
  ASSERT_TRUE(sender.ok()) << sender.error().message;
  auto lazy = world.st(1).create(user_request(msec(100)), {2, 51});
  ASSERT_TRUE(lazy.ok()) << lazy.error().message;
  rms::Port lazy_inbox;
  world.node(2).ports.bind(51, &lazy_inbox);
  std::vector<Time> delays;
  UserEndpoint endpoint(*world.node(2).cpu, world.node(2).ports, 50, {},
                        sender.value()->user_bound(), [&](rms::Message m) {
                          delays.push_back(world.sim.now() - m.sent_at);
                        });
  world.sim.run();
  ASSERT_EQ(world.st(1).stats().mux_joins, 1u);  // one channel carries both

  constexpr int kSends = 50;
  workload::PacedSource chatter(world.sim, usec(500), 16, [&](Bytes f) {
    rms::Message m;
    m.data = std::move(f);
    (void)lazy.value()->send(std::move(m));
  });
  chatter.start();
  const Time t0 = world.sim.now();
  for (int i = 0; i < kSends; ++i) {
    world.sim.at(t0 + msec(10) * i + usec(250), [&] {
      rms::Message m;
      m.data = patterned_bytes(64);
      (void)sender.value()->send(std::move(m), world.sim.now());
    });
  }
  world.sim.run_until(t0 + msec(10) * kSends);
  chatter.stop();
  world.sim.run();

  ASSERT_EQ(delays.size(), static_cast<std::size_t>(kSends));
  for (Time d : delays) EXPECT_LT(d, st_config.piggyback_window / 2);
}

TEST(UserRms, CloseClosesInnerStream) {
  auto world = st_world(2);
  auto sender = UserRms::create(world.st(1), *world.node(1).cpu, user_request(),
                                {2, 50}, {});
  ASSERT_TRUE(sender.ok());
  world.sim.run();
  EXPECT_EQ(world.st(1).active_channels(), 1u);
  sender.value()->close();
  EXPECT_EQ(world.st(1).active_channels(), 0u);  // ST stream released too
}

}  // namespace
}  // namespace dash::userrms
