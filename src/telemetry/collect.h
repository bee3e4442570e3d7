// Layer collectors: mirror each layer's local stats into a MetricsRegistry
// (DESIGN.md §8).
//
// Layers keep their cheap local Stats structs on the hot path; a collector
// pass snapshots them into the shared registry under the layer's metric
// prefix just before export. Latency distributions cannot be reconstructed
// from counters, so those are pushed live instead — see
// SubtransportLayer::set_metrics, NetRmsFabric::set_metrics, and
// RkomNode::set_metrics.
#pragma once

#include <string>
#include <vector>

#include "fault/fault.h"
#include "net/ethernet.h"
#include "sim/simulator.h"
#include "net/internet.h"
#include "net/network.h"
#include "net/udp/udp.h"
#include "rt/driver.h"
#include "netrms/fabric.h"
#include "rkom/rkom.h"
#include "st/st.h"
#include "telemetry/metrics.h"

namespace dash::telemetry {

/// Generic network counters under "net.<prefix>.*": tx/rx, drops by cause,
/// and the fault-injector impairments the medium applied.
void collect_network(MetricsRegistry& m, const net::Network& n,
                     const std::string& prefix);

/// collect_network plus per-host interface queue depth / drop gauges under
/// "net.<prefix>.host<h>.*".
void collect_ethernet(MetricsRegistry& m, const net::EthernetNetwork& n,
                      const std::string& prefix,
                      const std::vector<net::HostId>& hosts);

/// collect_network plus gateway congestion counters, per-cause drop
/// counters (net.<prefix>.drop.{trunk_full,no_route,access}) and route
/// table rebuilds (net.<prefix>.route.recomputes).
void collect_internet(MetricsRegistry& m, const net::InternetNetwork& n,
                      const std::string& prefix);

/// Network-RMS fabric and its admission controller under "netrms.<prefix>.*":
/// stream outcomes, delivery/drop counters, reserved vs available bandwidth
/// and buffer.
void collect_fabric(MetricsRegistry& m, const netrms::NetRmsFabric& f,
                    const std::string& prefix);

/// Subtransport layer under "st.<host>.*": stream/channel lifecycle, cache
/// and piggyback effectiveness, fragmentation and reassembly outcomes,
/// control-channel retries/resets, security work, fast acks.
void collect_st(MetricsRegistry& m, const st::SubtransportLayer& st);

/// RKOM node under "rkom.<host>.*": calls, retries, duplicate suppression,
/// reply caching.
void collect_rkom(MetricsRegistry& m, const rkom::RkomNode& node);

/// Fault injector under "fault.<prefix>.*": scripted impairment counts.
void collect_fault(MetricsRegistry& m, const fault::FaultInjector& f,
                   const std::string& prefix);

/// UDP socket backend under "net.<prefix>.*" (DESIGN.md §16): everything
/// collect_network emits plus "net.<prefix>.udp.*" — sockets, datagram and
/// batch counts, EAGAIN parks, peak backlog, and decode failures by cause.
void collect_udp(MetricsRegistry& m, const net::UdpNetwork& n,
                 const std::string& prefix);

/// Wall-clock driver counters under "rt.<prefix>.*": polls, io vs timer
/// wakeups, dispatches, simulator events run under the driver, and the
/// worst observed timer lateness (ns).
void collect_driver(MetricsRegistry& m, const rt::Driver& d,
                    const std::string& prefix = "driver");

/// Event-engine counters under "sim.<prefix>.*": events executed, tasks
/// scheduled inline vs heap-allocated, timers created/cancelled, overflow
/// events, live/peak pending set (DESIGN.md §10).
void collect_sim(MetricsRegistry& m, const sim::Simulator& sim,
                 const std::string& prefix = "engine");

}  // namespace dash::telemetry
