// C15: real-UDP backend — loopback throughput and delivery invariants.
//
// Two workloads over genuine 127.0.0.1 kernel sockets:
//
//   * raw: the UdpNetwork datagram path alone — encode, sendmmsg,
//     recvmmsg, decode — windowed so the receive buffer never overruns.
//     Reports raw_mbps, the medium's capacity to the stack above it.
//   * stack: a full reliable stream (ST negotiation, ARQ, acks) moving
//     4 MB between two node stacks under the wall-clock driver. Reports
//     stack_mbps and the invariants the CI gate actually cares about:
//     delivery_ok (byte-exact, exactly-once, in-order) and codec_ok
//     (zero corrupted/malformed datagrams on a clean wire).
//
// Wall-clock throughput on shared CI hardware is noise; the checked
// baseline therefore carries ONLY the delivery invariants. The mbps
// numbers and stack_over_raw (stack_mbps / raw_mbps, the share of the
// medium the reliable stack delivers) go to BENCH_c15_udp.json for trend
// tracking.
//
// CLI: the shared baseline gate (bench_util.h Gate) over the invariants,
// higher is better.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "net/udp/udp.h"
#include "rt/driver.h"
#include "sim/simulator.h"
#include "transport/stream.h"
#include "workload/udp_world.h"

using namespace dash;
using namespace dash::bench;

namespace {

constexpr std::size_t kRawPayload = 1200;     ///< fits the 1400-byte MTU
constexpr int kRawWindow = 256;               ///< in flight per burst
constexpr double kRawWallBudget = 1.5;        ///< seconds of blasting
constexpr std::size_t kStackBytes = 4 * 1024 * 1024;

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RawResult {
  double mbps = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered_count = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t lost = 0;  ///< kernel buffer drops, not codec failures
  net::UdpNetwork::UdpStats udp;
  std::uint64_t corrupted_dropped = 0;
};

RawResult run_raw() {
  sim::Simulator sim;
  rt::Driver driver(sim);
  net::UdpNetwork net(driver);

  RawResult r;
  net.attach(1, [](net::Packet) {});
  net.attach(2, [&r](net::Packet p) {
    ++r.delivered_count;
    r.delivered_bytes += p.payload.size();
  });

  const Bytes payload = patterned_bytes(kRawPayload, 0xc15);
  const auto t0 = std::chrono::steady_clock::now();
  while (wall_since(t0) < kRawWallBudget) {
    for (int i = 0; i < kRawWindow; ++i) {
      net::Packet p;
      p.src = 1;
      p.dst = 2;
      p.stream = 15;
      p.payload = payload;
      net.send(std::move(p));
      ++r.sent;
    }
    // Drain the window before the next burst: anything still missing
    // after the grace run was dropped by the kernel (buffer overrun) and
    // will never arrive — resync rather than wedge.
    const std::uint64_t want = r.sent - r.lost;
    driver.run_until([&] { return r.delivered_count >= want; }, msec(200));
    if (r.delivered_count < want) r.lost += want - r.delivered_count;
  }
  const double wall = wall_since(t0);
  r.mbps = static_cast<double>(r.delivered_bytes) / (1024.0 * 1024.0) / wall;
  r.udp = net.udp_stats();
  r.corrupted_dropped = net.stats().corrupted_dropped;
  return r;
}

struct StackResult {
  double mbps = 0;
  bool delivery_ok = false;
  std::uint64_t retransmissions = 0;
  net::UdpNetwork::UdpStats udp;
  std::uint64_t corrupted_dropped = 0;
};

StackResult run_stack() {
  workload::UdpLoopbackWorld world;
  transport::StreamConfig config;
  transport::StreamReceiver receiver(world.st(2), world.node(2).ports, 60,
                                     config);
  Bytes received;
  receiver.on_data([&](Bytes b) { append(received, b); });
  transport::StreamSender sender(world.st(1), world.node(1).ports,
                                 rms::Label{2, 60}, config);

  StackResult r;
  if (!sender.ok()) return r;

  const Bytes payload = patterned_bytes(kStackBytes, 15);
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    while (offset < payload.size()) {
      const std::size_t n = std::min<std::size_t>(4096, payload.size() - offset);
      Bytes chunk(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                  payload.begin() + static_cast<std::ptrdiff_t>(offset + n));
      if (!sender.write(std::move(chunk)).ok()) return;
      offset += n;
    }
  };
  sender.on_writable(feed);

  const auto t0 = std::chrono::steady_clock::now();
  feed();
  const bool done = world.driver.run_until(
      [&] { return sender.drained() && received.size() == payload.size(); },
      sec(60));
  const double wall = wall_since(t0);

  r.mbps = static_cast<double>(received.size()) / (1024.0 * 1024.0) / wall;
  r.delivery_ok = done && received == payload;  // byte-exact = exactly-once
  r.retransmissions = sender.stats().retransmissions;
  r.udp = world.network->udp_stats();
  r.corrupted_dropped = world.network->stats().corrupted_dropped;
  return r;
}

std::uint64_t codec_errors(const net::UdpNetwork::UdpStats& u,
                           std::uint64_t corrupted_dropped) {
  return corrupted_dropped + u.decode_truncated + u.decode_bad_magic +
         u.decode_bad_version + u.decode_bad_length + u.decode_bad_checksum;
}

}  // namespace

int main(int argc, char** argv) {
  const Gate gate(argc, argv, Gate::Better::kHigher, 0.001);

  title("C15", "real-UDP backend: loopback throughput + delivery invariants");

  if (!net::udp_available()) {
    // Sandboxes without loopback sockets: nothing to measure, nothing to
    // gate. Succeed so the bench-smoke job stays green where UDP is off.
    std::printf("UDP loopback unavailable; skipping\n");
    return 0;
  }

  BenchJson json("c15_udp");
  std::map<std::string, double> current;

  const RawResult raw = run_raw();
  std::printf("raw datagram path: %.1f MB/s (%llu sent, %llu delivered, "
              "%llu kernel drops, %llu send batches, %llu recv batches)\n",
              raw.mbps, static_cast<unsigned long long>(raw.sent),
              static_cast<unsigned long long>(raw.delivered_count),
              static_cast<unsigned long long>(raw.lost),
              static_cast<unsigned long long>(raw.udp.send_batches),
              static_cast<unsigned long long>(raw.udp.recv_batches));

  const StackResult stack = run_stack();
  std::printf("reliable stream:   %.1f MB/s (%zu bytes, %llu retransmissions, "
              "delivery %s)\n",
              stack.mbps, kStackBytes,
              static_cast<unsigned long long>(stack.retransmissions),
              stack.delivery_ok ? "byte-exact" : "BROKEN");

  const double stack_over_raw = raw.mbps > 0 ? stack.mbps / raw.mbps : 0.0;
  std::printf("stack / raw:       %.3f\n", stack_over_raw);

  const std::uint64_t raw_codec = codec_errors(raw.udp, raw.corrupted_dropped);
  const std::uint64_t stack_codec =
      codec_errors(stack.udp, stack.corrupted_dropped);
  const bool codec_ok = raw_codec == 0 && stack_codec == 0;
  std::printf("codec errors: %llu raw, %llu stack (%s)\n",
              static_cast<unsigned long long>(raw_codec),
              static_cast<unsigned long long>(stack_codec),
              codec_ok ? "clean" : "DIRTY WIRE");

  json.record("raw_mbps", raw.mbps, "MB/s", {});
  json.record("raw_datagrams", static_cast<double>(raw.delivered_count),
              "datagrams", {});
  json.record("raw_kernel_drops", static_cast<double>(raw.lost), "datagrams",
              {});
  json.record("stack_mbps", stack.mbps, "MB/s", {});
  json.record("stack_over_raw", stack_over_raw, "ratio", {});
  json.record("stack_retransmissions",
              static_cast<double>(stack.retransmissions), "messages", {});
  json.record("delivery_ok", stack.delivery_ok ? 1.0 : 0.0, "bool", {});
  json.record("codec_ok", codec_ok ? 1.0 : 0.0, "bool", {});

  // Invariants only: wall-clock MB/s on shared runners is not a gate.
  current["delivery_ok"] = stack.delivery_ok ? 1.0 : 0.0;
  current["codec_ok"] = codec_ok ? 1.0 : 0.0;

  if (const int rc = gate.finish(current, "udp")) return rc;
  return stack.delivery_ok && codec_ok ? 0 : 1;
}
