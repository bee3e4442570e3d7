// Network-level RMS provider (paper §3.1, §2).
//
// A NetRmsFabric wraps one network object and implements host-to-host
// network RMS on it: parameter negotiation against the network's
// capabilities, admission control per delay-bound type, per-stream
// deadline-tagged transmission, optional software checksumming with
// hardware elision, establishment cost (the thing the ST caches to avoid,
// §4.2), and failure notification. One fabric per network.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.h"
#include "netrms/accounting.h"
#include "netrms/admission.h"
#include "rms/rms.h"
#include "sim/cpu_scheduler.h"
#include "telemetry/metrics.h"
#include "util/checksum.h"

namespace dash::netrms {

using rms::HostId;
using rms::Label;

/// Wire overhead of a network RMS data packet:
/// type(1) + stream(8) + seq(8) + sent_at(8) + checksum(4).
inline constexpr std::size_t kHeaderBytes = 29;

class NetworkRms;  // the sender handle, defined below

class NetRmsFabric {
 public:
  struct Stats {
    std::uint64_t streams_created = 0;
    std::uint64_t streams_rejected = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t checksum_drops = 0;   ///< corruption caught by software checksum
    std::uint64_t corrupt_delivered = 0;///< corruption passed through (no checksum)
    std::uint64_t protocol_drops = 0;   ///< unparseable header / unknown stream /
                                        ///< source host not the stream's
    std::uint64_t no_port_drops = 0;    ///< no port bound at the target label
    std::uint64_t out_of_order = 0;     ///< delivered with seq below a prior one
  };

  NetRmsFabric(sim::Simulator& sim, net::Network& network);
  ~NetRmsFabric();
  NetRmsFabric(const NetRmsFabric&) = delete;
  NetRmsFabric& operator=(const NetRmsFabric&) = delete;

  /// Registers a host's CPU and port registry and attaches it to the
  /// network. Must be called before the host creates or receives RMS.
  void register_host(HostId host, sim::CpuScheduler& cpu, rms::PortRegistry& ports);

  /// Creates a network RMS from `src` to `target` (§2.4 negotiation, §2.3
  /// admission). The stream becomes usable after the network's setup cost;
  /// earlier sends are queued until then.
  Result<std::unique_ptr<rms::Rms>> create(HostId src, const rms::Request& request,
                                                const Label& target);

  net::Network& network() { return network_; }
  const net::Network& network() const { return network_; }
  const net::NetworkTraits& traits() const { return network_.traits(); }
  sim::Simulator& simulator() { return sim_; }
  const Stats& stats() const { return stats_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  /// Negotiates actual parameters for a request against this network's
  /// capabilities, without admitting. Exposed for tests and for the ST's
  /// multiplexing decisions.
  Result<rms::Params> negotiate(const rms::Request& request) const;

  /// Attaches usage accounting (§2.4/§5): creations, bytes, and connect
  /// time are charged to the creating host. Pass nullptr to detach; the
  /// Accounting object must outlive the fabric.
  void set_accounting(Accounting* accounting) { accounting_ = accounting; }

  /// Publishes the per-delivery network-RMS delay distribution
  /// ("netrms.<network name>.delivery_ns") into `m`; nullptr detaches. The
  /// registry must outlive the fabric. Counter-style stats are mirrored by
  /// telemetry::collect_fabric instead.
  void set_metrics(telemetry::MetricsRegistry* m);

  /// Registers a fabric-level failure listener, called once per fail_all
  /// (network death) after the per-stream failure callbacks ran. Several
  /// hosts share one fabric, so listeners are token-addressed; remove the
  /// token before the listener's owner dies.
  std::uint64_t add_failure_listener(std::function<void(const Error&)> cb);
  void remove_failure_listener(std::uint64_t token);

 private:
  friend class NetworkRms;

  struct Stream {
    std::uint64_t id = 0;
    HostId src = 0;
    Label source;  ///< sender-side label (host + allocated port id)
    Label target;
    rms::Params params;
    ChecksumKind checksum = ChecksumKind::kNone;
    int priority = 0;
    Time ready_at = 0;      ///< establishment completes
    std::uint64_t next_seq = 0;
    std::uint64_t max_seq_seen = 0;
    bool reserved_buffers = false;
    NetworkRms* sender = nullptr;  ///< for failure notification
    // Sends submitted while the stream is still establishing. They drain in
    // FIFO order at ready_at through one shared event, so each deferred
    // message costs a vector slot instead of its own heap-allocated closure.
    std::vector<std::pair<rms::Message, Time>> deferred;
    bool drain_scheduled = false;
  };

  void host_receive(HostId host, net::Packet p);
  void process_delivery(HostId host, net::Packet p);
  void send_now(Stream& s, rms::Message msg, Time deadline);
  void forget(std::uint64_t stream);
  void fail_all(const Error& e);

  struct HostEntry {
    sim::CpuScheduler* cpu = nullptr;
    rms::PortRegistry* ports = nullptr;
  };

  sim::Simulator& sim_;
  net::Network& network_;
  AdmissionController admission_;
  // Hot path: looked up per packet. unordered_map keeps references stable
  // across rehash (node-based), so Stream& held across a cpu callback stays
  // valid.
  std::unordered_map<HostId, HostEntry> hosts_;
  std::unordered_map<std::uint64_t, Stream> streams_;
  std::uint64_t next_stream_ = 1;
  Stats stats_;
  Accounting* accounting_ = nullptr;
  telemetry::Histogram* delivery_delay_hist_ = nullptr;
  std::vector<std::pair<std::uint64_t, std::function<void(const Error&)>>>
      failure_listeners_;
  std::uint64_t next_listener_token_ = 1;
};

/// The sender handle for a network RMS. Obtained from NetRmsFabric::create.
class NetworkRms final : public rms::Rms {
 public:
  ~NetworkRms() override;

  /// When the stream finished (or will finish) establishment.
  Time ready_at() const;
  std::uint64_t stream_id() const { return stream_; }

  /// Clients that reserve this much slice headroom get their payload sent
  /// without a serialization copy (the header is prepended in place).
  std::size_t send_headroom() const override { return kHeaderBytes; }

 private:
  friend class NetRmsFabric;
  NetworkRms(NetRmsFabric& fabric, std::uint64_t stream, rms::Params params)
      : Rms(std::move(params)), fabric_(&fabric), stream_(stream) {}

  Status do_send(rms::Message msg, Time transmission_deadline) override;
  void do_close() override;
  void detach() { fabric_ = nullptr; }
  void fail_from_fabric(const Error& e) { fail(e); }

  NetRmsFabric* fabric_;
  std::uint64_t stream_;
};

}  // namespace dash::netrms
