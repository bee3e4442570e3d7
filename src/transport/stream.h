// Stream transport protocols over ST RMS (paper §2.5, §4.4, Figure 5).
//
// A stream protocol moves bulk data over a high-capacity ST RMS. The paper
// decomposes its mechanisms so each can be enabled independently:
//
//   * reliability          — sequence numbers, cumulative *reliability
//                            acknowledgements* on a low-capacity/high-delay
//                            reverse ST RMS, and timeout retransmission;
//   * capacity enforcement — rate-based (timers) or acknowledgement-based
//                            (the ST's fast-ack service carries the flow
//                            control acks, §3.2);
//   * receiver flow control— a window advertisement piggybacked on the
//                            acknowledgements, protecting the receive
//                            buffer;
//   * sender flow control  — the flow-controlled IPC port between the
//                            sending client and the send protocol.
//
// Figure 5's four configurations are the four combinations of capacity
// enforcement and receiver flow control; DESIGN.md's F5 bench sweeps them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "st/st.h"
#include "transport/enforcer.h"
#include "transport/ipc_port.h"
#include "transport/rtt.h"

namespace dash::transport {

using rms::HostId;
using rms::Label;

enum class CapacityMode : std::uint8_t {
  kNone,
  kRateBased,
  kAckBased,
  /// Token-bucket shaping to the stream's declared statistical workload
  /// (average load + burstiness); for statistical-bound streams.
  kTokenBucket,
};

struct StreamConfig {
  bool reliable = true;
  CapacityMode capacity = CapacityMode::kAckBased;
  bool receiver_flow_control = true;

  std::size_t receive_buffer = 64 * 1024;   ///< receiver-side buffering
  std::size_t send_port_limit = 32 * 1024;  ///< IPC port queue size limit
  std::size_t message_size = 1024;          ///< data chunk per ST message

  /// Initial retransmission timeout, and the fixed one when adaptive_rto
  /// is off. With adaptive_rto (default), the RTO is derived from sampled
  /// RTTs (RFC 6298 SRTT + 4·RTTVAR, Karn's rule: no samples from
  /// retransmitted sequences) and clamped to [min_rto, max_rto].
  Time retransmit_timeout = msec(400);
  bool adaptive_rto = true;
  Time min_rto = msec(50);
  Time max_rto = sec(5);

  /// If true, received in-order data is handed to on_data immediately and
  /// its buffer space freed (a fast receiving client). If false, data sits
  /// in the receive buffer until read() — a slow client, which is what
  /// exercises receiver flow control.
  bool auto_drain = true;
};

/// Default RMS parameter sets matching §2.5's guidance.
rms::Request bulk_data_request(std::uint64_t capacity = 64 * 1024,
                               std::uint64_t max_message = 4 * 1024);
rms::Request reliability_ack_request();

/// Receiving side of a stream. Bind it before the sender starts.
class StreamReceiver {
 public:
  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;             ///< in-order bytes accepted
    std::uint64_t duplicates = 0;        ///< retransmissions of old data
    std::uint64_t out_of_order = 0;      ///< buffered (reliable) or gap (not)
    std::uint64_t dropped_overflow = 0;  ///< receive buffer full
    std::uint64_t acks_sent = 0;
    std::uint64_t ack_channel_resets = 0;  ///< failed reverse RMS re-opened
  };

  StreamReceiver(st::SubtransportLayer& st, rms::PortRegistry& ports,
                 rms::PortId data_port, StreamConfig config);
  ~StreamReceiver();
  StreamReceiver(const StreamReceiver&) = delete;
  StreamReceiver& operator=(const StreamReceiver&) = delete;

  /// In-order data callback (auto_drain mode).
  void on_data(std::function<void(Bytes)> cb) { on_data_ = std::move(cb); }

  /// Slow-client interface: consume buffered in-order data. Frees receive
  /// buffer space, which widens the advertised window.
  Bytes read(std::size_t max);
  std::size_t available() const { return buffered_.size(); }

  const Stats& stats() const { return stats_; }
  std::uint64_t contiguous_bytes() const { return stats_.bytes; }

 private:
  void handle(rms::Message msg);
  void accept(std::uint64_t seq, Bytes data);
  void send_ack();
  std::size_t buffer_free() const;

  st::SubtransportLayer& st_;
  rms::PortRegistry& ports_;
  rms::PortId data_port_id_;
  StreamConfig config_;
  rms::Port data_port_;

  std::uint64_t expected_seq_ = 0;
  Bytes buffered_;  ///< in-order, unconsumed (slow-client mode)
  std::map<std::uint64_t, Bytes> reorder_;  ///< out-of-order stash (reliable)
  std::size_t reorder_bytes_ = 0;

  // Reverse path for acks, created on first data message.
  std::unique_ptr<rms::Rms> ack_rms_;
  HostId sender_host_ = 0;
  rms::PortId sender_ack_port_ = 0;

  std::function<void(Bytes)> on_data_;
  Stats stats_;
};

/// Sending side of a stream.
class StreamSender {
 public:
  struct Stats {
    std::uint64_t bytes_written = 0;   ///< accepted from the client
    std::uint64_t messages_sent = 0;   ///< data messages (incl. retransmits)
    std::uint64_t bytes_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t acked_bytes = 0;     ///< cumulatively acknowledged
    std::uint64_t write_blocked = 0;   ///< sender flow control engaged
    std::uint64_t rtt_samples = 0;     ///< unambiguous RTT measurements
  };

  /// `target` is the receiver's (host, data port). The data ST RMS is
  /// created from `data_request` (defaults to bulk_data_request()).
  StreamSender(st::SubtransportLayer& st, rms::PortRegistry& ports, Label target,
               StreamConfig config,
               const rms::Request& data_request = bulk_data_request());
  ~StreamSender();
  StreamSender(const StreamSender&) = delete;
  StreamSender& operator=(const StreamSender&) = delete;

  /// True if the data RMS was created; check before using.
  bool ok() const { return data_rms_ != nullptr; }
  const Error& creation_error() const { return creation_error_; }

  /// Client write with sender flow control (kWouldBlock when the IPC port
  /// is full; resume via on_writable).
  Status write(Bytes data);
  void on_writable(std::function<void()> cb) { port_.on_writable(std::move(cb)); }

  /// All written data sent and (if reliable) acknowledged.
  bool drained() const;
  void on_drained(std::function<void()> cb) { on_drained_ = std::move(cb); }

  const Stats& stats() const { return stats_; }
  const rms::Params& data_params() const { return data_rms_->params(); }

  /// Bytes currently outstanding against the RMS capacity (§2.2's "sent
  /// but not yet delivered"), when ack-based enforcement is active.
  std::uint64_t capacity_outstanding() const {
    return ack_enforcer_ != nullptr ? ack_enforcer_->outstanding() : 0;
  }

  /// Current retransmission timeout and smoothed RTT (-1 before the first
  /// sample), for tests.
  Time current_rto() const { return current_rto_; }
  Time srtt() const { return rtt_.valid() ? rtt_.srtt() : -1; }

 private:
  void pump();
  void send_chunk(Bytes chunk);
  void handle_ack(rms::Message msg);
  void on_fast_ack(std::uint64_t seq);
  void sample_rtt(Time rtt);
  Time base_rto() const;
  struct Unacked;
  void retransmit(std::uint64_t seq, Unacked& entry);
  void arm_rto();
  void rto_fire();
  void maybe_drained();

  st::SubtransportLayer& st_;
  rms::PortRegistry& ports_;
  sim::Simulator& sim_;
  StreamConfig config_;
  IpcPort port_;

  std::unique_ptr<rms::Rms> data_rms_;
  st::StRms* data_st_ = nullptr;  ///< downcast view for send_acked
  Error creation_error_{Errc::kInternal, ""};

  rms::PortId ack_port_id_ = 0;
  rms::Port ack_port_;

  std::unique_ptr<CapacityEnforcer> enforcer_;
  AckBasedEnforcer* ack_enforcer_ = nullptr;  ///< view of enforcer_ when ack-based
  /// Capacity charges are released per message by ST fast acks (§3.2)
  /// rather than by a timer; decided once, in the constructor.
  bool fast_acked_ = false;
  std::uint64_t next_seq_ = 0;
  struct Unacked {
    Bytes data;
    Time first_sent;
    int retx = 0;  ///< retransmissions so far (Karn: no RTT sample if > 0)
  };
  std::map<std::uint64_t, Unacked> unacked_;
  std::map<std::uint64_t, std::size_t> fast_ack_sizes_;  ///< seq -> bytes awaiting fast ack
  std::size_t flight_bytes_ = 0;
  std::uint64_t receiver_window_ = ~0ull;
  sim::TimerHandle rto_timer_;  ///< guards the oldest unacked message
  sim::TimerHandle pump_timer_; ///< wake-up for a rate- or bucket-blocked pump
  Time current_rto_ = 0;
  RttEstimator rtt_;            ///< SRTT/RTTVAR for the adaptive RTO
  bool pump_scheduled_ = false;
  bool in_pump_ = false;
  std::function<void()> on_drained_;
  Stats stats_;
};

}  // namespace dash::transport
