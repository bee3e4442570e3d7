// The RMS client interface: streams, ports, and providers (paper §2).
//
// Basic RMS properties: (1) message boundaries are preserved, (2) messages
// are delivered in sequence, (3) clients are notified of RMS failure.
// A client at one level may be a provider at a higher level: network RMS
// providers sit at the bottom, the subtransport layer is a client of those
// and a provider of ST RMS, and so on up to user-level RMS (§3.4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "rms/message.h"
#include "rms/params.h"
#include "util/result.h"

namespace dash::rms {

/// The receiver end of an RMS: "typically a passive object such as a port;
/// a message is considered delivered when it is enqueued on the port or
/// given to a process waiting at the port" (§2).
class Port {
 public:
  Port() = default;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Registers a waiting process: subsequent deliveries invoke `handler`
  /// immediately; any queued messages are drained into it first.
  void set_handler(std::function<void(Message)> handler) {
    handler_ = std::move(handler);
    while (handler_ && !queue_.empty()) {
      Message m = std::move(queue_.front());
      queue_.pop_front();
      handler_(std::move(m));
    }
  }

  /// Provider side: delivers a message (enqueue or hand to the waiter).
  void deliver(Message msg, Time now) {
    ++delivered_;
    bytes_delivered_ += msg.size();
    last_delivery_ = now;
    if (msg.sent_at >= 0) last_delay_ = now - msg.sent_at;
    if (handler_) {
      handler_(std::move(msg));
    } else {
      queue_.push_back(std::move(msg));
    }
  }

  /// Polling receive for clients without a handler.
  std::optional<Message> poll() {
    if (queue_.empty()) return std::nullopt;
    Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  std::size_t queued() const { return queue_.size(); }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  Time last_delivery() const { return last_delivery_; }
  Time last_delay() const { return last_delay_; }

 private:
  std::function<void(Message)> handler_;
  std::deque<Message> queue_;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  Time last_delivery_ = -1;
  Time last_delay_ = -1;
};

/// The sending end of an RMS. Concrete subclasses are produced by
/// providers (network RMS, ST RMS, ...).
class Rms {
 public:
  virtual ~Rms() = default;
  Rms(const Rms&) = delete;
  Rms& operator=(const Rms&) = delete;

  /// The actual (negotiated) parameters of this RMS (§2.4).
  const Params& params() const { return params_; }

  /// Sends a message. The default transmission deadline is "as required by
  /// the delay bound" — the provider computes now + allocated stage delay.
  Status send(Message msg) { return send(std::move(msg), kTimeNever); }

  /// Sends with an explicit transmission deadline (§4.3.1: "a transmission
  /// deadline parameter is passed to the network RMS send routine"). A
  /// network RMS gives its packet this deadline. An ST RMS takes it as the
  /// latest time the message may wait in the piggyback queue for company:
  /// the queue leaves by then, carrying whatever joined it. The packet's
  /// deadline still comes from the stream's negotiated bound, so an early
  /// deadline ends the wait but buys no priority over other streams.
  Status send(Message msg, Time transmission_deadline) {
    if (closed_) return make_error(Errc::kClosed, "send on closed RMS");
    if (failed_) return make_error(Errc::kRmsFailed, "send on failed RMS");
    if (msg.size() > params_.max_message_size) {
      return make_error(Errc::kMessageTooLarge,
                        "message of " + std::to_string(msg.size()) +
                            " bytes exceeds maximum of " +
                            std::to_string(params_.max_message_size));
    }
    ++messages_sent_;
    bytes_sent_ += msg.size();
    return do_send(std::move(msg), transmission_deadline);
  }

  /// Deletes the stream; further sends fail with kClosed.
  void close() {
    if (closed_) return;
    closed_ = true;
    do_close();
  }

  bool closed() const { return closed_; }
  bool failed() const { return failed_; }

  /// RMS basic property 3: clients are notified of an RMS failure.
  void on_failure(std::function<void(const Error&)> cb) { failure_cb_ = std::move(cb); }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Header bytes this provider prepends to each sent message. A client
  /// that serializes payloads itself (the ST arena) reserves this much
  /// slice headroom so the provider's header is written in place instead
  /// of copying the payload into a fresh wire buffer — the skb_reserve
  /// idiom.
  virtual std::size_t send_headroom() const { return 0; }

 protected:
  explicit Rms(Params params) : params_(std::move(params)) {}

  virtual Status do_send(Message msg, Time transmission_deadline) = 0;
  virtual void do_close() {}

  /// Provider implementations call this to signal failure to the client.
  /// The callback runs from a local, so it may destroy this RMS.
  void fail(Error e) {
    if (failed_) return;
    failed_ = true;
    if (auto cb = std::move(failure_cb_)) cb(e);
  }

  /// Replaces the negotiated parameters. Providers that transparently
  /// re-home a live RMS onto a different underlying resource (path
  /// failover) re-run §2.4 negotiation and install the new actual set
  /// here; the client-visible contract is whatever params() now reports.
  void reset_params(Params params) { params_ = std::move(params); }

 private:
  Params params_;
  bool closed_ = false;
  bool failed_ = false;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::function<void(const Error&)> failure_cb_;
};

/// Per-host registry mapping port labels to Port objects so providers can
/// deliver by label.
class PortRegistry {
 public:
  /// Binds `port` to `id`; overwrites any previous binding.
  void bind(PortId id, Port* port) { ports_[id] = port; }
  void unbind(PortId id) { ports_.erase(id); }

  /// Looks up a port; nullptr if unbound (message is dropped, as with an
  /// unmatched datagram).
  Port* find(PortId id) const {
    auto it = ports_.find(id);
    return it == ports_.end() ? nullptr : it->second;
  }

  /// Allocates a fresh unused port id (ephemeral ports).
  PortId allocate() { return next_ephemeral_++; }

 private:
  // Hot path: every delivered message looks its port up here.
  std::unordered_map<PortId, Port*> ports_;
  PortId next_ephemeral_ = 1'000'000;  // ids below are well-known
};

}  // namespace dash::rms
