// Per-layer counters read through each layer's public stats(), taken as
// snapshots before and after a measured phase so setup is excluded.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.h"
#include "net/network.h"
#include "netrms/fabric.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"
#include "st/st.h"

namespace perfbench {

struct LayerSnap {
  // ST, summed over hosts.
  std::uint64_t st_messages = 0;
  std::uint64_t st_packets = 0;
  std::uint64_t st_components = 0;
  std::uint64_t st_fragments = 0;
  std::uint64_t st_partials = 0;
  std::uint64_t st_control = 0;
  // Network RMS fabric.
  std::uint64_t netrms_messages = 0;
  std::uint64_t netrms_drops = 0;
  // Medium.
  std::uint64_t net_dropped = 0;
  // Event engine.
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t scheduled_heap = 0;
  std::uint64_t peak_pending = 0;
  dash::Time sim_now = 0;
  std::vector<dash::Time> cpu_busy;  ///< per host, modelled CPU time

  void add_host(const dash::st::SubtransportLayer& st, const dash::sim::CpuScheduler& cpu) {
    const auto& s = st.stats();
    st_messages += s.messages_sent;
    st_packets += s.network_messages;
    st_components += s.components_sent;
    st_fragments += s.fragments_sent;
    st_partials += s.partials_discarded;
    st_control += s.control_messages;
    cpu_busy.push_back(cpu.busy_time());
  }
  void add_fabric(const dash::netrms::NetRmsFabric& f) {
    const auto& s = f.stats();
    netrms_messages += s.messages_sent;
    netrms_drops += s.checksum_drops + s.protocol_drops + s.no_port_drops;
    net_dropped += f.network().stats().dropped;
  }
  void add_engine(const dash::sim::Simulator& sim) {
    const auto& e = sim.stats();
    events = e.executed;
    scheduled = e.scheduled;
    scheduled_heap = e.scheduled_heap;
    peak_pending = e.peak_pending;
    sim_now = sim.now();
  }
};

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// st.*, netrms.*, sim.* (engine and modelled CPU) metrics between two
/// snapshots of the same world, for `ops` operations.
inline void report_layers(const LayerSnap& a, const LayerSnap& b, double ops, Report& r) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  r.layer("st.components_per_packet", ratio(d(a.st_components, b.st_components),
                                            d(a.st_packets, b.st_packets)));
  r.layer("st.fragments_per_msg", ratio(d(a.st_fragments, b.st_fragments),
                                        d(a.st_messages, b.st_messages)));
  r.layer("st.partials_discarded", d(a.st_partials, b.st_partials));
  // Control traffic counts from world start: stream set-up is its job.
  r.layer("st.control_messages", static_cast<double>(b.st_control));
  r.layer("netrms.messages_per_op", ratio(d(a.netrms_messages, b.netrms_messages), ops));
  r.layer("netrms.drops", d(a.netrms_drops, b.netrms_drops));
  r.layer("sim.events_per_op", ratio(d(a.events, b.events), ops));
  r.layer("sim.heap_task_frac", ratio(d(a.scheduled_heap, b.scheduled_heap),
                                      d(a.scheduled, b.scheduled)));
  r.layer("sim.peak_pending", static_cast<double>(b.peak_pending));
  double busiest = 0;
  for (std::size_t i = 0; i < a.cpu_busy.size() && i < b.cpu_busy.size(); ++i) {
    busiest = std::max(busiest, static_cast<double>(b.cpu_busy[i] - a.cpu_busy[i]));
  }
  r.layer("sim.cpu_busy_frac", ratio(busiest, static_cast<double>(b.sim_now - a.sim_now)));
}

}  // namespace perfbench
