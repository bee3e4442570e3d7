// Counters of the loopback worlds shared by udp_bulk and udp_rpc.
#pragma once

#include "layers.h"
#include "net/udp/udp.h"
#include "rt/driver.h"
#include "workload/udp_world.h"

namespace perfbench {

struct UdpSnap {
  LayerSnap layers;
  dash::net::UdpNetwork::UdpStats udp;
  std::uint64_t corrupted = 0;
  dash::rt::Driver::Stats rt;
};

inline UdpSnap snap(dash::workload::UdpLoopbackWorld& w) {
  UdpSnap s;
  for (auto& n : w.nodes) s.layers.add_host(*n->st, *n->cpu);
  s.layers.add_fabric(*w.fabric);
  s.layers.add_engine(w.sim);
  s.udp = w.network->udp_stats();
  s.corrupted = w.network->stats().corrupted_dropped;
  s.rt = w.driver.stats();
  return s;
}

/// Every layer metric a loopback world has counters for, between `a` and
/// `b`, for `ops` operations.
inline void report_udp(const UdpSnap& a, const UdpSnap& b, double ops, Report& r) {
  report_layers(a.layers, b.layers, ops, r);
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  r.layer("net.udp.dgrams_per_sendmmsg",
          ratio(d(a.udp.datagrams_sent, b.udp.datagrams_sent),
                d(a.udp.send_batches, b.udp.send_batches)));
  r.layer("net.udp.dgrams_per_recvmmsg",
          ratio(d(a.udp.datagrams_received, b.udp.datagrams_received),
                d(a.udp.recv_batches, b.udp.recv_batches)));
  r.layer("net.udp.send_eagain", d(a.udp.send_eagain, b.udp.send_eagain));
  const auto codec = [](const UdpSnap& s) {
    return s.corrupted + s.udp.decode_truncated + s.udp.decode_bad_magic +
           s.udp.decode_bad_version + s.udp.decode_bad_length +
           s.udp.decode_bad_checksum;
  };
  r.layer("net.udp.codec_errors", d(codec(a), codec(b)));
  const double polls = d(a.rt.polls, b.rt.polls);
  r.layer("rt.timer_wakeup_frac", ratio(d(a.rt.wakeups_timer, b.rt.wakeups_timer), polls));
  r.layer("rt.events_per_poll", ratio(d(a.rt.events_run, b.rt.events_run), polls));
  r.layer("rt.max_lateness_us", static_cast<double>(b.rt.max_lateness) / 1e3);
}

}  // namespace perfbench
