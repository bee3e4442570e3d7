// Layer microbenchmarks for the traced run: timed direct calls into the
// UDP wire codec, CRC-32 and the Ethernet medium. Each figure is the
// median of five repetitions.
#include <cstdint>

#include "net/ethernet.h"
#include "net/udp/wire.h"
#include "sim/simulator.h"
#include "util/checksum.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dash;

/// Median over five repetitions of the wall ns per call of `f`, called
/// `iters` times per repetition. `f` returns a value folded into `sink`
/// so the work cannot be optimised away.
template <typename F>
double ns_per_call(int iters, F&& f) {
  static volatile std::uint64_t sink = 0;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t acc = 0;
    const double t0 = wall_seconds();
    for (int i = 0; i < iters; ++i) acc += f(i);
    reps.push_back((wall_seconds() - t0) * 1e9 / iters);
    sink = sink + acc;
  }
  return median(reps);
}

net::Packet packet(std::size_t bytes, std::uint64_t seed) {
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.stream = 9;
  p.seq = 42;
  p.deadline = msec(5);
  p.payload = patterned_bytes(bytes, seed);
  return p;
}

double encode_ns(std::size_t bytes, std::uint64_t seed) {
  const net::Packet p = packet(bytes, seed);
  return ns_per_call(20'000, [&p](int) {
    const Bytes d = net::udp::encode(p);
    return static_cast<std::uint64_t>(d.size()) + static_cast<std::uint64_t>(d.back());
  });
}

double decode_ns(std::size_t bytes, std::uint64_t seed) {
  const Bytes d = net::udp::encode(packet(bytes, seed));
  return ns_per_call(20'000, [&d](int) {
    net::Packet out;
    const auto e = net::udp::decode(d, out);
    return static_cast<std::uint64_t>(e) + out.payload.size();
  });
}

/// One frame sent by each of kLanHosts interfaces, then the medium drained;
/// the figure is wall ns per frame.
double ethernet_frame_ns(std::uint64_t seed) {
  sim::Simulator sim;
  net::NetworkTraits traits = net::ethernet_traits();
  traits.bits_per_second *= 10;
  net::EthernetNetwork eth(sim, traits, seed);
  std::uint64_t delivered = 0;
  for (int h = 1; h <= kLanHosts; ++h) {
    eth.attach(static_cast<net::HostId>(h), [&delivered](net::Packet) { ++delivered; });
  }
  const Buffer payload = patterned_bytes(200, seed);
  const double per_round = ns_per_call(400, [&](int round) {
    for (int h = 1; h <= kLanHosts; ++h) {
      net::Packet p;
      p.src = static_cast<net::HostId>(h);
      p.dst = static_cast<net::HostId>((h + round) % kLanHosts + 1);
      p.deadline = sim.now() + msec(1 + h % 7);
      p.payload = payload;
      eth.send(std::move(p));
    }
    sim.run();
    return delivered;
  });
  return per_round / kLanHosts;
}

}  // namespace

void run_micro(const Options& o, Report& r) {
  r.layer("net.udp.encode_ns_128B", encode_ns(128, o.seed));
  r.layer("net.udp.encode_ns_1KB", encode_ns(1024, o.seed));
  r.layer("net.udp.decode_ns_128B", decode_ns(128, o.seed));
  r.layer("net.udp.decode_ns_1KB", decode_ns(1024, o.seed));
  const Bytes kb = patterned_bytes(1024, o.seed);
  const double crc_ns = ns_per_call(20'000, [&kb](int) {
    return static_cast<std::uint64_t>(crc32(kb));
  });
  r.layer("util.crc32_MBps", 1024.0 / crc_ns * 1e3);
  r.layer("net.ethernet.frame_ns", ethernet_frame_ns(o.seed));
}

}  // namespace perfbench
