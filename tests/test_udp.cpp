// Tests for the real-UDP backend (DESIGN.md §16): the wall-clock driver,
// the versioned wire codec, UdpNetwork over kernel loopback sockets, and
// the unmodified ST/transport stack running over real I/O.
//
// Every test that needs a socket is gated on net::udp_available() and
// skips cleanly where the environment forbids sockets. Wall-clock budgets
// are deliberately generous (seconds for millisecond-scale work): they
// bound hangs, not performance — CI timing is noisy.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault/fault.h"
#include "net/udp/udp.h"
#include "net/udp/wire.h"
#include "rkom/rkom.h"
#include "rt/driver.h"
#include "sim/cpu_scheduler.h"
#include "telemetry/collect.h"
#include "transport/stream.h"
#include "workload/udp_world.h"
#include "test_helpers.h"

namespace dash {
namespace {

using net::UdpNetwork;
using net::udp::DecodeError;
using workload::UdpLoopbackWorld;
using workload::UdpWorldConfig;

#define REQUIRE_UDP()                                   \
  do {                                                  \
    if (!net::udp_available()) {                        \
      GTEST_SKIP() << "UDP sockets unavailable here";   \
    }                                                   \
  } while (0)

// ------------------------------------------------------------- wire codec

net::Packet sample_packet() {
  net::Packet p;
  p.src = 7;
  p.dst = 0x1122334455667788ull;
  p.stream = 42;
  p.seq = ~0ull - 3;
  p.deadline = msec(1234);
  p.priority = -5;
  p.payload = patterned_bytes(300, 99);
  return p;
}

TEST(UdpWire, RoundTripsEveryHeaderField) {
  const net::Packet p = sample_packet();
  const Bytes wire = net::udp::encode(p);
  ASSERT_EQ(wire.size(), net::udp::kHeaderBytes + 300);

  net::Packet out;
  ASSERT_EQ(net::udp::decode(wire, out), DecodeError::kNone);
  EXPECT_EQ(out.src, p.src);
  EXPECT_EQ(out.dst, p.dst);
  EXPECT_EQ(out.stream, p.stream);
  EXPECT_EQ(out.seq, p.seq);
  EXPECT_EQ(out.deadline, p.deadline);
  EXPECT_EQ(out.priority, p.priority);
  EXPECT_FALSE(out.corrupted);
  EXPECT_EQ(out.payload, p.payload);
}

TEST(UdpWire, RoundTripsEmptyPayloadAndFlags) {
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.deadline = kTimeNever;
  p.corrupted = true;  // a sender-side fault hook marked it
  const Bytes wire = net::udp::encode(p);
  ASSERT_EQ(wire.size(), net::udp::kHeaderBytes);

  net::Packet out;
  ASSERT_EQ(net::udp::decode(wire, out), DecodeError::kNone);
  EXPECT_EQ(out.deadline, kTimeNever);
  EXPECT_TRUE(out.corrupted);
  EXPECT_TRUE(out.payload.empty());
}

TEST(UdpWire, RejectsTruncatedDatagrams) {
  const Bytes wire = net::udp::encode(sample_packet());
  net::Packet out;
  // Every possible truncation decodes to an error, never a throw.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const DecodeError e = net::udp::decode(BytesView(wire.data(), n), out);
    if (n < net::udp::kHeaderBytes) {
      EXPECT_EQ(e, DecodeError::kTruncated) << "at length " << n;
    } else {
      EXPECT_EQ(e, DecodeError::kBadLength) << "at length " << n;
    }
  }
  EXPECT_EQ(net::udp::decode(BytesView{}, out), DecodeError::kTruncated);
}

TEST(UdpWire, RejectsBadMagicVersionAndLength) {
  const Bytes good = net::udp::encode(sample_packet());
  net::Packet out;

  Bytes bad = good;
  bad[0] = static_cast<std::byte>(0xEE);
  EXPECT_EQ(net::udp::decode(bad, out), DecodeError::kBadMagic);

  bad = good;
  bad[2] = static_cast<std::byte>(net::udp::kWireVersion + 1);
  EXPECT_EQ(net::udp::decode(bad, out), DecodeError::kBadVersion);

  bad = good;
  bad.push_back(std::byte{0});  // trailing junk
  EXPECT_EQ(net::udp::decode(bad, out), DecodeError::kBadLength);
}

TEST(UdpWire, AnySingleBitFlipIsDetected) {
  const Bytes good = net::udp::encode(sample_packet());
  net::Packet out;
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = good;
      bad[i] ^= static_cast<std::byte>(1u << bit);
      EXPECT_NE(net::udp::decode(bad, out), DecodeError::kNone)
          << "undetected flip at byte " << i << " bit " << bit;
    }
  }
}

// ----------------------------------------------------------------- driver

TEST(Driver, RunsSimTimersInWallTime) {
  sim::Simulator sim;
  rt::Driver driver(sim);
  bool fired = false;
  sim.after(msec(20), [&] { fired = true; });
  const Time start = rt::monotonic_now();
  ASSERT_TRUE(driver.run_until([&] { return fired; }, msec(2000)));
  const Time elapsed = rt::monotonic_now() - start;
  EXPECT_GE(elapsed, msec(19));  // the timer really waited ~20ms of wall
  EXPECT_GE(driver.stats().events_run, 1u);
  // The sim clock trails the live wall reading, never leads it.
  EXPECT_GE(driver.now(), sim.now());
  EXPECT_GE(sim.now(), msec(20));
}

TEST(Driver, RunForAdvancesTheClockWithNoEvents) {
  sim::Simulator sim;
  rt::Driver driver(sim);
  driver.run_for(msec(15));
  EXPECT_GE(sim.now(), msec(15));
  EXPECT_GE(driver.stats().wakeups_timer, 1u);
}

// The driver's epoll wait is the stack's only sleep, and the kernel may end
// a timed wait up to the thread's timer slack late: 50 us by default, more
// than half of an RKOM call over loopback. A driver runs its thread at
// 1 ns and puts the old slack back when it goes. How late a wake really
// runs is not asserted: that would be flaky on shared runners.
TEST(Driver, SleepsWithSubMicrosecondTimerSlack) {
  const int before = prctl(PR_GET_TIMERSLACK);
  if (before < 0 || prctl(PR_SET_TIMERSLACK, 50'000UL) != 0) {
    GTEST_SKIP() << "prctl timer slack unavailable here";
  }
  {
    sim::Simulator outer_sim;
    rt::Driver outer(outer_sim);
    EXPECT_LE(prctl(PR_GET_TIMERSLACK), 1000);
    {
      sim::Simulator inner_sim;
      rt::Driver inner(inner_sim);
      EXPECT_LE(prctl(PR_GET_TIMERSLACK), 1000);
    }
    EXPECT_LE(prctl(PR_GET_TIMERSLACK), 1000);  // nested drivers keep it
  }
  EXPECT_EQ(prctl(PR_GET_TIMERSLACK), 50'000);
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(before));
}

// Under the wall clock a CPU task's modelled duration is not waited out:
// the tasks run at once, still in EDF order, and busy_time() is what they
// really took. Simulation keeps the modelled charge (test_sim.cpp).
TEST(Driver, CpuTasksRunAtOnceInEdfOrderAndChargeMeasuredTime) {
  sim::Simulator sim;
  rt::Driver driver(sim);
  sim::CpuScheduler cpu(sim, sim::CpuPolicy::kEdf);
  std::vector<Time> done;
  // Each task does 100 us of real work, so the measured charge is at least
  // 300 us on any clock resolution.
  const auto task = [&](Time deadline) {
    return [&done, deadline] {
      const Time start = rt::monotonic_now();
      while (rt::monotonic_now() - start < usec(100)) {
      }
      done.push_back(deadline);
    };
  };
  // The first submit dispatches on the idle CPU; EDF then takes 20 before 30.
  cpu.submit(msec(10), msec(50), task(msec(10)));
  cpu.submit(msec(30), msec(50), task(msec(30)));
  cpu.submit(msec(20), msec(50), task(msec(20)));
  const Time start = rt::monotonic_now();
  ASSERT_TRUE(driver.run_until([&] { return done.size() == 3; }, sec(2)));
  EXPECT_LT(rt::monotonic_now() - start, msec(50));
  EXPECT_EQ(done, (std::vector<Time>{msec(10), msec(20), msec(30)}));
  EXPECT_GE(cpu.busy_time(), usec(300));
  EXPECT_LT(cpu.busy_time(), msec(150));
  EXPECT_EQ(cpu.tasks_completed(), 3u);
}

TEST(Driver, DispatchesFdReadiness) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  sim::Simulator sim;
  rt::Driver driver(sim);
  Bytes got;
  ASSERT_TRUE(driver.add_fd(fds[0], EPOLLIN, [&](std::uint32_t) {
    char buf[16];
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    for (ssize_t i = 0; i < n; ++i) got.push_back(static_cast<std::byte>(buf[i]));
  }).ok());
  // Write from a timer so the readiness arrives while the loop is parked.
  sim.after(msec(5), [&] { ASSERT_EQ(write(fds[1], "hi", 2), 2); });
  ASSERT_TRUE(driver.run_until([&] { return got.size() == 2; }, msec(2000)));
  EXPECT_GE(driver.stats().io_dispatches, 1u);
  EXPECT_GE(driver.stats().wakeups_io, 1u);
  driver.remove_fd(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// ------------------------------------------------------- raw UDP loopback

struct RawPair {
  sim::Simulator sim;
  rt::Driver driver{sim};
  UdpNetwork net{driver};
  std::vector<net::Packet> at1, at2;

  RawPair() {
    net.attach(1, [this](net::Packet p) { at1.push_back(std::move(p)); });
    net.attach(2, [this](net::Packet p) { at2.push_back(std::move(p)); });
  }
};

TEST(UdpNetwork, DeliversAcrossRealLoopbackSockets) {
  REQUIRE_UDP();
  RawPair w;
  EXPECT_TRUE(w.net.attached(1));
  EXPECT_TRUE(w.net.attached(2));
  EXPECT_NE(w.net.local_port(1), 0);
  EXPECT_NE(w.net.local_port(1), w.net.local_port(2));

  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.stream = 9;
  p.deadline = msec(77);
  p.priority = 3;
  p.payload = patterned_bytes(600, 5);
  ASSERT_TRUE(w.net.send(p));
  ASSERT_TRUE(w.driver.run_until([&] { return w.at2.size() == 1; }, sec(5)));

  const net::Packet& got = w.at2.front();
  EXPECT_EQ(got.src, 1u);
  EXPECT_EQ(got.stream, 9u);
  EXPECT_EQ(got.deadline, msec(77));
  EXPECT_EQ(got.priority, 3);
  EXPECT_EQ(got.payload, p.payload);
  EXPECT_EQ(w.net.stats().delivered, 1u);
  EXPECT_EQ(w.net.udp_stats().datagrams_sent, 1u);
  EXPECT_EQ(w.net.udp_stats().datagrams_received, 1u);
  EXPECT_EQ(w.net.udp_stats().sockets_opened, 2u);
}

TEST(UdpNetwork, BatchesBurstsIntoFewSyscalls) {
  REQUIRE_UDP();
  RawPair w;
  constexpr int kCount = 128;
  // All sends land in one event batch -> one flush task -> sendmmsg runs.
  for (int i = 0; i < kCount; ++i) {
    net::Packet p;
    p.src = 1;
    p.dst = 2;
    p.stream = static_cast<std::uint64_t>(i);
    p.payload = patterned_bytes(512, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(w.net.send(p));
  }
  ASSERT_TRUE(
      w.driver.run_until([&] { return w.at2.size() == kCount; }, sec(10)));
  const auto& us = w.net.udp_stats();
  EXPECT_EQ(us.datagrams_sent, static_cast<std::uint64_t>(kCount));
  // Batching actually happened: far fewer syscalls than datagrams.
  EXPECT_LE(us.send_batches * 2, us.datagrams_sent);
  EXPECT_GE(us.max_send_backlog, 2u);
  // Delivery is per-stream intact.
  EXPECT_EQ(w.net.stats().delivered, static_cast<std::uint64_t>(kCount));
}

TEST(UdpNetwork, MalformedDatagramsCountNeverThrow) {
  REQUIRE_UDP();
  RawPair w;
  const std::uint16_t port = w.net.local_port(2);
  ASSERT_NE(port, 0);

  // A plain socket outside the stack throws garbage at host 2's port.
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(port);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  auto throw_at = [&](const Bytes& b) {
    ASSERT_EQ(sendto(fd, b.data(), b.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(b.size()));
  };

  net::Packet p = sample_packet();
  p.dst = 2;
  const Bytes good = net::udp::encode(p);

  Bytes truncated(good.begin(), good.begin() + 20);
  throw_at(truncated);

  Bytes bad_magic = good;
  bad_magic[1] = std::byte{0x00};
  throw_at(bad_magic);

  Bytes bad_version = good;
  bad_version[2] = static_cast<std::byte>(net::udp::kWireVersion + 7);
  throw_at(bad_version);

  Bytes bad_length = good;
  bad_length.push_back(std::byte{0xAA});
  throw_at(bad_length);

  Bytes flipped = good;
  flipped[net::udp::kHeaderBytes + 10] ^= std::byte{0x04};
  throw_at(flipped);

  close(fd);
  ASSERT_TRUE(w.driver.run_until(
      [&] { return w.net.stats().corrupted_dropped >= 5; }, sec(5)));
  const auto& us = w.net.udp_stats();
  EXPECT_EQ(us.decode_truncated, 1u);
  EXPECT_EQ(us.decode_bad_magic, 1u);
  EXPECT_EQ(us.decode_bad_version, 1u);
  EXPECT_EQ(us.decode_bad_length, 1u);
  EXPECT_EQ(us.decode_bad_checksum, 1u);
  EXPECT_EQ(w.net.stats().corrupted_dropped, 5u);
  EXPECT_TRUE(w.at2.empty());  // nothing malformed reached a sink
}

// ------------------------------------------- full stacks over real sockets

struct UdpStreamFixture {
  UdpLoopbackWorld world;
  transport::StreamConfig config;
  std::unique_ptr<transport::StreamReceiver> receiver;
  std::unique_ptr<transport::StreamSender> sender;
  Bytes received;

  explicit UdpStreamFixture(UdpWorldConfig wc = {},
                            transport::StreamConfig cfg = {})
      : world(std::move(wc)), config(cfg) {
    receiver = std::make_unique<transport::StreamReceiver>(
        world.st(2), world.node(2).ports, /*data_port=*/60, config);
    receiver->on_data([this](Bytes b) { append(received, b); });
    sender = std::make_unique<transport::StreamSender>(
        world.st(1), world.node(1).ports, rms::Label{2, 60}, config);
  }

  /// Writes `payload` respecting sender flow control; rejected writes
  /// resume from on_writable.
  void feed(Bytes payload) {
    auto offset = std::make_shared<std::size_t>(0);
    auto data = std::make_shared<Bytes>(std::move(payload));
    auto pump = std::make_shared<std::function<void()>>();
    transport::StreamSender* s = sender.get();
    *pump = [s, offset, data] {
      while (*offset < data->size()) {
        const std::size_t n =
            std::min<std::size_t>(2048, data->size() - *offset);
        Bytes chunk(data->begin() + static_cast<std::ptrdiff_t>(*offset),
                    data->begin() + static_cast<std::ptrdiff_t>(*offset + n));
        if (!s->write(std::move(chunk)).ok()) return;  // resumes on_writable
        *offset += n;
      }
    };
    sender->on_writable([pump] { (*pump)(); });
    (*pump)();
  }
};

TEST(UdpStack, ReliableTransferIsExactlyOnceInOrder) {
  REQUIRE_UDP();
  UdpStreamFixture f;
  ASSERT_TRUE(f.sender->ok()) << f.sender->creation_error().message;

  const Bytes payload = patterned_bytes(64 * 1024, 1234);
  f.feed(payload);
  ASSERT_TRUE(f.world.driver.run_until(
      [&] { return f.sender->drained() && f.received.size() == payload.size(); },
      sec(30)))
      << "received " << f.received.size() << "/" << payload.size();

  // Byte-exact equality is the exactly-once in-order check at data level.
  EXPECT_EQ(f.received, payload);
  EXPECT_EQ(f.receiver->stats().bytes, payload.size());
  EXPECT_EQ(f.receiver->stats().dropped_overflow, 0u);
  // The bytes really crossed the kernel: sockets moved datagrams.
  EXPECT_GT(f.world.network->udp_stats().datagrams_received, 0u);
  EXPECT_EQ(f.world.network->stats().corrupted_dropped, 0u);
}

TEST(UdpStack, SurvivesGilbertElliottLossWithReliableDelivery) {
  REQUIRE_UDP();
  // The seeded Gilbert–Elliott plan from test_fault.cpp, interposed on
  // real datagrams at arrival: bursts lose everything while they last.
  // The stream is established clean first — the control handshake gives
  // up after the ST's kControlRetries (that abandonment is the path
  // manager's failover cue, not ARQ's problem), so the loss plan starts
  // once data is flowing and must be beaten by retransmission alone.
  UdpWorldConfig wc;
  transport::StreamConfig cfg;
  cfg.min_rto = msec(20);   // keep wall-clock recovery brisk
  cfg.max_rto = msec(500);  // bound backoff stalls to test-friendly time
  UdpStreamFixture f(std::move(wc), cfg);
  ASSERT_TRUE(f.sender->ok()) << f.sender->creation_error().message;

  const Bytes payload = patterned_bytes(64 * 1024, 77);
  f.feed(payload);
  ASSERT_TRUE(f.world.driver.run_until(
      [&] { return !f.received.empty(); }, sec(10)))
      << "stream never established";
  fault::FaultInjector& faults =
      f.world.with_faults(fault::FaultPlan().burst_loss(0.1, 0.3, 1.0), 11);
  ASSERT_TRUE(f.world.driver.run_until(
      [&] { return f.sender->drained() && f.received.size() == payload.size(); },
      sec(60)))
      << "received " << f.received.size() << "/" << payload.size()
      << " after " << faults.counters().dropped_burst << " burst drops, "
      << faults.counters().examined << " examined, datagrams tx/rx "
      << f.world.network->udp_stats().datagrams_sent << "/"
      << f.world.network->udp_stats().datagrams_received << ", delivered "
      << f.world.network->stats().delivered << ", retx "
      << f.sender->stats().retransmissions << ", acks_rx "
      << f.sender->stats().acks_received << ", rx msgs/bytes/dup/ooo/acks "
      << f.receiver->stats().messages << "/" << f.receiver->stats().bytes
      << "/" << f.receiver->stats().duplicates << "/"
      << f.receiver->stats().out_of_order << "/"
      << f.receiver->stats().acks_sent << ", st2 dlv/stale/unk/partial "
      << f.world.st(2).stats().messages_delivered << "/"
      << f.world.st(2).stats().stale_dropped << "/"
      << f.world.st(2).stats().unknown_dropped << "/"
      << f.world.st(2).stats().partials_discarded << ", ctrl_retries "
      << f.world.st(1).stats().control_retries << "+"
      << f.world.st(2).stats().control_retries;

  EXPECT_EQ(f.received, payload);                       // exactly-once, in-order
  EXPECT_GT(faults.counters().dropped_burst, 0u);       // losses really occurred
  EXPECT_GT(f.sender->stats().retransmissions, 0u);     // ARQ really recovered
  EXPECT_EQ(f.world.network->stats().fault_dropped,
            faults.counters().dropped_burst);
}

TEST(UdpStack, PathManagerProbesOverRealSockets) {
  REQUIRE_UDP();
  UdpWorldConfig wc;
  wc.with_path_manager = true;
  wc.path_config.probe_interval = msec(30);
  wc.path_config.probe_timeout = msec(200);
  UdpStreamFixture f(std::move(wc));
  ASSERT_TRUE(f.sender->ok()) << f.sender->creation_error().message;

  const Bytes payload = patterned_bytes(8 * 1024, 3);
  f.feed(payload);
  auto& path1 = *f.world.node(1).path;
  // The second network is probed and answered on its own sockets.
  auto answered_on_b = [&] {
    const auto* h = path1.probe_health(2, *f.world.media[1].fabric);
    return h != nullptr && h->pongs_received > 0;
  };
  ASSERT_TRUE(f.world.driver.run_until(
      [&] { return f.received.size() == payload.size() && answered_on_b(); }, sec(30)))
      << "probes " << path1.stats().probes_sent << " pongs "
      << path1.stats().pongs_received << " timeouts " << path1.stats().probe_timeouts;
  EXPECT_EQ(f.received, payload);
  EXPECT_GT(path1.stats().probes_sent, 0u);
  // Probes really crossed the second medium's sockets: the data stream
  // rides the first network, so only pings and pongs use the second.
  EXPECT_GT(f.world.media[1].network->udp_stats().datagrams_received, 0u);
  const auto* health = path1.probe_health(2, *f.world.fabric);
  ASSERT_NE(health, nullptr);
}

// RKOM over real sockets (§3.3): paced echo calls each run exactly once,
// and the server's at-most-once reply cache drains once the reply acks
// land. Retransmissions are not asserted: a stalled runner may hold a
// reply past the retry timeout, and the at-most-once checks hold anyway.
TEST(UdpStack, RkomCallsOverRealSocketsRunExactlyOnce) {
  REQUIRE_UDP();
  UdpLoopbackWorld world;
  rkom::RkomNode server(world.st(1), world.node(1).ports);
  rkom::RkomNode client(world.st(2), world.node(2).ports);
  constexpr std::uint64_t kEcho = 7;
  server.register_operation(
      kEcho, {[](BytesView args) { return Bytes(args.begin(), args.end()); }, 0});

  constexpr int kCalls = 200;
  int replied = 0, failed = 0, wrong = 0;
  for (int i = 0; i < kCalls; ++i) {
    world.sim.after(msec(i), [&, i] {
      Bytes args = patterned_bytes(128, static_cast<std::uint64_t>(i));
      client.call(1, kEcho, args, [&, args](Result<Bytes> reply) {
        if (!reply.ok()) {
          ++failed;
        } else {
          ++replied;
          if (reply.value() != args) ++wrong;
        }
      });
    });
  }
  // Done once every call is answered and every reply ack has landed.
  ASSERT_TRUE(world.driver.run_until(
      [&] { return replied + failed == kCalls && server.cached_replies() == 0; },
      sec(30)))
      << "replied " << replied << " failed " << failed << " cached "
      << server.cached_replies();

  EXPECT_EQ(failed, 0);
  EXPECT_EQ(wrong, 0);  // every reply equals its args
  EXPECT_EQ(client.stats().calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(server.stats().executions, client.stats().calls);
  EXPECT_EQ(client.stats().replies_received, client.stats().calls);
}

TEST(UdpStack, TelemetryCollectorsExportUdpAndDriverCounters) {
  REQUIRE_UDP();
  UdpStreamFixture f;
  ASSERT_TRUE(f.sender->ok());
  const Bytes payload = patterned_bytes(4 * 1024, 9);
  f.feed(payload);
  ASSERT_TRUE(f.world.driver.run_until(
      [&] { return f.received.size() == payload.size(); }, sec(30)));

  telemetry::MetricsRegistry m;
  telemetry::collect_udp(m, *f.world.network, "udp");
  telemetry::collect_driver(m, f.world.driver);
  EXPECT_GT(m.counter("net.udp.udp.datagrams_sent").value(), 0u);
  EXPECT_GT(m.counter("net.udp.udp.send_batches").value(), 0u);
  EXPECT_GT(m.counter("net.udp.delivered").value(), 0u);
  EXPECT_GT(m.counter("rt.driver.polls").value(), 0u);
  EXPECT_GT(m.counter("rt.driver.events_run").value(), 0u);
  EXPECT_GT(m.counter("rt.driver.fds_registered").value(), 0u);
}

}  // namespace
}  // namespace dash
