// The Remote Kernel Operation Mechanism (paper §3.3).
//
// "All request/reply communication uses the DASH Remote Kernel Operation
// Mechanism (RKOM). ... The RKOM module maintains an RKOM channel to each
// active peer. Such a channel consists of four ST RMS's, one low-delay and
// one high-delay RMS in each direction. The low-delay RMS's are used for
// initial request and reply messages, and the high-delay RMS's are used
// for retransmissions and acknowledgements."
//
// We implement at-most-once semantics: the server deduplicates requests by
// (client, call id), caches replies until acknowledged, and re-sends the
// cached reply for retransmitted requests. A user-level RPC facade sits on
// top ("used as a basis for user-level request/reply communication").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "st/st.h"
#include "telemetry/metrics.h"

namespace dash::rkom {

using rms::HostId;
using rms::Label;

/// Well-known port every RKOM node binds.
inline constexpr rms::PortId kRkomPort = 3;

struct RkomConfig {
  Time retry_timeout = msec(120);
  int max_retries = 5;
  /// How long an unacknowledged cached reply survives (at-most-once state).
  Time reply_cache_ttl = sec(10);
};

class RkomNode {
 public:
  /// Server-side operation: args in, result out. The handler runs
  /// `service_time` after the request arrives and the reply leaves at
  /// once. That wait is a timer, not CPU work: the host CPU stays free
  /// for other tasks meanwhile (under rt::Driver it is a real timer).
  struct Operation {
    std::function<Bytes(BytesView)> handler;
    Time service_time = 0;
  };

  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t replies_received = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t request_retransmissions = 0;
    std::uint64_t reply_retransmissions = 0;  ///< cached reply re-sent
    std::uint64_t duplicate_requests = 0;     ///< suppressed by at-most-once
    std::uint64_t executions = 0;             ///< handler actually ran
    std::uint64_t acks_sent = 0;
    std::uint64_t channels_reestablished = 0;  ///< rebuilt after stream failure
  };

  RkomNode(st::SubtransportLayer& st, rms::PortRegistry& ports, RkomConfig config = {});
  ~RkomNode();
  RkomNode(const RkomNode&) = delete;
  RkomNode& operator=(const RkomNode&) = delete;

  /// Registers the handler for operation code `op`.
  void register_operation(std::uint64_t op, Operation operation);

  /// Invokes operation `op` on `peer`. The callback receives the reply
  /// bytes or an error (timeout, channel failure).
  void call(HostId peer, std::uint64_t op, Bytes args,
            std::function<void(Result<Bytes>)> cb);

  const Stats& stats() const { return stats_; }
  HostId host() const { return st_.host(); }

  /// Number of four-stream channels currently open (tests).
  std::size_t channels() const { return channels_.size(); }

  /// Number of replies the server side still caches for at-most-once
  /// (tests): each leaves on the client's ack or at its TTL.
  std::size_t cached_replies() const { return replies_.size(); }

  /// Publishes the client-observed call round-trip distribution
  /// ("rkom.<host>.call_rtt_ns") into `m`; nullptr detaches. The registry
  /// must outlive the node. Counter-style stats are mirrored by
  /// telemetry::collect_rkom instead.
  void set_metrics(telemetry::MetricsRegistry* m);

 private:
  struct Channel {
    std::unique_ptr<rms::Rms> low;   ///< initial requests / replies
    std::unique_ptr<rms::Rms> high;  ///< retransmissions / acks
    bool usable() const { return low != nullptr && high != nullptr; }
  };

  struct PendingCall {
    HostId peer;
    Buffer request_wire;  ///< shared with every (re)transmission's message
    std::function<void(Result<Bytes>)> cb;
    int retries_left;
    sim::TimerHandle retry_timer;  ///< cancelled in O(1) when the reply lands
    Time started = 0;  ///< call() time, for the RTT distribution
  };

  struct CachedReply {
    Buffer wire;  ///< shared with the reply and its retransmissions
    bool executing = false;
    sim::TimerHandle expiry_timer;  ///< cancelled when the client acks
  };

  Channel& channel(HostId peer);
  void handle(rms::Message msg);
  void handle_request(HostId client, std::uint64_t call_id, std::uint64_t op,
                      Bytes args, bool is_retry);
  void handle_reply(HostId server, std::uint64_t call_id, Bytes result);
  void arm_retry(std::uint64_t call_id);

  st::SubtransportLayer& st_;
  rms::PortRegistry& ports_;
  sim::Simulator& sim_;
  RkomConfig config_;
  rms::Port port_;
  std::map<std::uint64_t, Operation> operations_;
  std::map<HostId, Channel> channels_;
  std::map<std::uint64_t, PendingCall> pending_;
  std::map<std::pair<HostId, std::uint64_t>, CachedReply> replies_;
  std::uint64_t next_call_ = 1;
  Stats stats_;
  telemetry::Histogram* call_rtt_hist_ = nullptr;
};

/// User-level request/reply on top of RKOM: named procedures.
class RpcServer {
 public:
  RpcServer(RkomNode& node) : node_(node) {}  // NOLINT

  /// Registers `name`; calls dispatch by a stable hash of the name.
  void handle(const std::string& name, std::function<Bytes(BytesView)> fn,
              Time service_time = 0);

  static std::uint64_t op_id(const std::string& name);

 private:
  RkomNode& node_;
};

class RpcClient {
 public:
  RpcClient(RkomNode& node, HostId server) : node_(node), server_(server) {}

  void call(const std::string& name, Bytes args,
            std::function<void(Result<Bytes>)> cb) {
    node_.call(server_, RpcServer::op_id(name), std::move(args), std::move(cb));
  }

 private:
  RkomNode& node_;
  HostId server_;
};

}  // namespace dash::rkom
