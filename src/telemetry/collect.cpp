#include "telemetry/collect.h"

namespace dash::telemetry {

void collect_network(MetricsRegistry& m, const net::Network& n,
                     const std::string& prefix) {
  const net::Network::Stats& s = n.stats();
  const std::string p = "net." + prefix + ".";
  m.counter(p + "sent").set(s.sent);
  m.counter(p + "delivered").set(s.delivered);
  m.counter(p + "bytes_delivered").set(s.bytes_delivered);
  m.counter(p + "dropped").set(s.dropped);
  m.counter(p + "dropped_corrupt").set(s.corrupted_dropped);
  m.counter(p + "fault_dropped").set(s.fault_dropped);
  m.counter(p + "fault_partitioned").set(s.fault_partitioned);
  m.counter(p + "fault_delayed").set(s.fault_delayed);
  m.counter(p + "fault_duplicated").set(s.fault_duplicated);
  m.counter(p + "fault_corrupted").set(s.fault_corrupted);
}

void collect_ethernet(MetricsRegistry& m, const net::EthernetNetwork& n,
                      const std::string& prefix,
                      const std::vector<net::HostId>& hosts) {
  collect_network(m, n, prefix);
  const std::string p = "net." + prefix + ".";
  for (net::HostId h : hosts) {
    if (!n.attached(h)) continue;
    const std::string hp = p + "host" + std::to_string(h) + ".";
    m.gauge(hp + "queue_bytes").set(static_cast<double>(n.interface_backlog(h)));
    m.counter(hp + "queue_dropped").set(n.interface_dropped(h));
  }
}

void collect_internet(MetricsRegistry& m, const net::InternetNetwork& n,
                      const std::string& prefix) {
  collect_network(m, n, prefix);
  m.counter("net." + prefix + ".gateway_drops").set(n.gateway_drops());
  const std::string p = "net." + prefix + ".";
  const net::InternetNetwork::DropStats& d = n.drop_stats();
  m.counter(p + "drop.trunk_full").set(d.trunk_full);
  m.counter(p + "drop.no_route").set(d.no_route);
  m.counter(p + "drop.access").set(d.access);
  m.counter(p + "route.recomputes").set(n.route_recomputes());
}

void collect_fabric(MetricsRegistry& m, const netrms::NetRmsFabric& f,
                    const std::string& prefix) {
  const netrms::NetRmsFabric::Stats& s = f.stats();
  const std::string p = "netrms." + prefix + ".";
  m.counter(p + "streams_created").set(s.streams_created);
  m.counter(p + "streams_rejected").set(s.streams_rejected);
  m.counter(p + "messages_sent").set(s.messages_sent);
  m.counter(p + "messages_delivered").set(s.messages_delivered);
  m.counter(p + "checksum_drops").set(s.checksum_drops);
  m.counter(p + "corrupt_delivered").set(s.corrupt_delivered);
  m.counter(p + "protocol_drops").set(s.protocol_drops);
  m.counter(p + "no_port_drops").set(s.no_port_drops);
  m.counter(p + "out_of_order").set(s.out_of_order);

  // Admission: accepted/rejected and reserved vs available capacity (§2.3).
  const netrms::AdmissionController& a = f.admission();
  m.counter(p + "admitted").set(a.admitted_count());
  m.counter(p + "rejected").set(a.rejected_count());
  m.gauge(p + "reserved_bps").set(a.reserved_bps());
  m.gauge(p + "bps_headroom").set(a.bps_headroom());
  m.gauge(p + "reserved_buffer_bytes").set(static_cast<double>(a.reserved_buffer()));
  m.gauge(p + "utilization")
      .set(a.config().bits_per_second == 0
               ? 0.0
               : a.reserved_bps() / static_cast<double>(a.config().bits_per_second));
}

void collect_st(MetricsRegistry& m, const st::SubtransportLayer& st) {
  const st::SubtransportLayer::Stats& s = st.stats();
  const std::string p = "st." + std::to_string(st.host()) + ".";
  m.counter(p + "st_rms_created").set(s.st_rms_created);
  m.counter(p + "st_rms_rejected").set(s.st_rms_rejected);
  m.counter(p + "net_rms_created").set(s.net_rms_created);
  m.counter(p + "cache_hits").set(s.cache_hits);
  m.counter(p + "cache_invalidations").set(s.cache_invalidations);
  m.counter(p + "mux_joins").set(s.mux_joins);
  m.counter(p + "messages_sent").set(s.messages_sent);
  m.counter(p + "messages_delivered").set(s.messages_delivered);
  m.counter(p + "network_messages").set(s.network_messages);
  m.counter(p + "components_sent").set(s.components_sent);
  m.counter(p + "piggybacked").set(s.piggybacked);
  m.counter(p + "fragments_sent").set(s.fragments_sent);
  m.counter(p + "reassembled").set(s.reassembled);
  m.counter(p + "partials_discarded").set(s.partials_discarded);
  m.counter(p + "partial_fragments_discarded").set(s.partial_fragments_discarded);
  m.counter(p + "partial_bytes_discarded").set(s.partial_bytes_discarded);
  m.counter(p + "stale_dropped").set(s.stale_dropped);
  m.counter(p + "unknown_dropped").set(s.unknown_dropped);
  m.counter(p + "auth_drops").set(s.auth_drops);
  m.counter(p + "auth_handshakes").set(s.auth_handshakes);
  m.counter(p + "auth_elided").set(s.auth_elided);
  m.counter(p + "bytes_encrypted").set(s.bytes_encrypted);
  m.counter(p + "bytes_macced").set(s.bytes_macced);
  m.counter(p + "fast_acks_sent").set(s.fast_acks_sent);
  m.counter(p + "fast_acks_delivered").set(s.fast_acks_delivered);
  m.counter(p + "control_messages").set(s.control_messages);
  m.counter(p + "control_retries").set(s.control_retries);
  m.counter(p + "control_channels_reset").set(s.control_channels_reset);
  m.gauge(p + "active_channels").set(static_cast<double>(st.active_channels()));
  m.gauge(p + "cached_channels").set(static_cast<double>(st.cached_channels()));
}

void collect_rkom(MetricsRegistry& m, const rkom::RkomNode& node) {
  const rkom::RkomNode::Stats& s = node.stats();
  const std::string p = "rkom." + std::to_string(node.host()) + ".";
  m.counter(p + "calls").set(s.calls);
  m.counter(p + "replies_received").set(s.replies_received);
  m.counter(p + "timeouts").set(s.timeouts);
  m.counter(p + "request_retransmissions").set(s.request_retransmissions);
  m.counter(p + "reply_retransmissions").set(s.reply_retransmissions);
  m.counter(p + "duplicate_requests").set(s.duplicate_requests);
  m.counter(p + "executions").set(s.executions);
  m.counter(p + "acks_sent").set(s.acks_sent);
  m.counter(p + "channels_reestablished").set(s.channels_reestablished);
  m.gauge(p + "channels").set(static_cast<double>(node.channels()));
}

void collect_fault(MetricsRegistry& m, const fault::FaultInjector& f,
                   const std::string& prefix) {
  const fault::FaultInjector::Counters& c = f.counters();
  const std::string p = "fault." + prefix + ".";
  m.counter(p + "examined").set(c.examined);
  m.counter(p + "dropped_iid").set(c.dropped_iid);
  m.counter(p + "dropped_burst").set(c.dropped_burst);
  m.counter(p + "blocked_link").set(c.blocked_link);
  m.counter(p + "blocked_partition").set(c.blocked_partition);
  m.counter(p + "reordered").set(c.reordered);
  m.counter(p + "duplicated").set(c.duplicated);
  m.counter(p + "corrupted").set(c.corrupted);
}

void collect_udp(MetricsRegistry& m, const net::UdpNetwork& n,
                 const std::string& prefix) {
  collect_network(m, n, prefix);
  const net::UdpNetwork::UdpStats& s = n.udp_stats();
  const std::string p = "net." + prefix + ".udp.";
  m.counter(p + "sockets_opened").set(s.sockets_opened);
  m.counter(p + "datagrams_sent").set(s.datagrams_sent);
  m.counter(p + "datagrams_received").set(s.datagrams_received);
  m.counter(p + "send_batches").set(s.send_batches);
  m.counter(p + "recv_batches").set(s.recv_batches);
  m.counter(p + "send_eagain").set(s.send_eagain);
  m.counter(p + "send_errors").set(s.send_errors);
  m.counter(p + "recv_errors").set(s.recv_errors);
  m.counter(p + "max_send_backlog").set(s.max_send_backlog);
  m.counter(p + "unknown_dst").set(s.unknown_dst);
  m.counter(p + "no_local_socket").set(s.no_local_socket);
  m.counter(p + "oversized").set(s.oversized);
  m.counter(p + "decode_truncated").set(s.decode_truncated);
  m.counter(p + "decode_bad_magic").set(s.decode_bad_magic);
  m.counter(p + "decode_bad_version").set(s.decode_bad_version);
  m.counter(p + "decode_bad_length").set(s.decode_bad_length);
  m.counter(p + "decode_bad_checksum").set(s.decode_bad_checksum);
}

void collect_driver(MetricsRegistry& m, const rt::Driver& d,
                    const std::string& prefix) {
  const rt::Driver::Stats& s = d.stats();
  const std::string p = "rt." + prefix + ".";
  m.counter(p + "polls").set(s.polls);
  m.counter(p + "wakeups_io").set(s.wakeups_io);
  m.counter(p + "wakeups_timer").set(s.wakeups_timer);
  m.counter(p + "io_dispatches").set(s.io_dispatches);
  m.counter(p + "events_run").set(s.events_run);
  m.counter(p + "fds_registered").set(s.fds_registered);
  m.counter(p + "max_lateness_ns").set(
      static_cast<std::uint64_t>(s.max_lateness));
}

void collect_sim(MetricsRegistry& m, const sim::Simulator& sim,
                 const std::string& prefix) {
  const sim::EngineStats& s = sim.stats();
  const std::string p = "sim." + prefix + ".";
  m.counter(p + "events_executed").set(s.executed);
  m.counter(p + "tasks_scheduled").set(s.scheduled);
  m.counter(p + "tasks_inline").set(s.scheduled_inline);
  m.counter(p + "tasks_heap").set(s.scheduled_heap);
  m.counter(p + "timers_created").set(s.timers_created);
  m.counter(p + "timers_cancelled").set(s.timers_cancelled);
  m.counter(p + "overflow_events").set(s.overflow_events);
  m.counter(p + "peak_pending").set(s.peak_pending);
  m.gauge(p + "pending").set(static_cast<double>(sim.pending()));
}

}  // namespace dash::telemetry
