// Baseline: a TCP-like sliding-window byte stream over datagrams.
//
// This models the traditional transport the paper contrasts RMS against
// (§4.4): a single window conflates receiver flow control with network
// congestion control, gateway buffers are unprotected, retransmission is
// go-back-N on timeout, and the only congestion signal is the ad hoc
// ICMP source quench (RFC 896) — "an ad hoc and often ineffective
// solution". Checksumming is mandatory at the transport *and* the
// datagram layer (the double data-touching cost RMS parameters avoid).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "baseline/datagram.h"

namespace dash::baseline {

struct TcpLikeConfig {
  std::uint64_t window_bytes = 16 * 1024;  ///< fixed send window ("cwnd")
  std::size_t mss = 512;                   ///< payload per segment
  Time retransmit_timeout = msec(500);
  std::size_t receive_buffer = 32 * 1024;
  bool auto_drain = true;
};

class TcpLikeReceiver {
 public:
  struct Stats {
    std::uint64_t segments = 0;
    std::uint64_t bytes = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t out_of_order_dropped = 0;  ///< go-back-N: no reorder buffer
    std::uint64_t acks_sent = 0;
  };

  TcpLikeReceiver(DatagramService& datagrams, HostId host, rms::PortId port,
                  TcpLikeConfig config);
  ~TcpLikeReceiver();

  void on_data(std::function<void(Bytes)> cb) { on_data_ = std::move(cb); }
  Bytes read(std::size_t max);
  const Stats& stats() const { return stats_; }

 private:
  void handle(rms::Message msg);
  void send_ack(const Label& to);
  std::size_t buffer_free() const;

  DatagramService& datagrams_;
  HostId host_;
  rms::PortId port_id_;
  TcpLikeConfig config_;
  rms::Port port_;
  std::uint64_t expected_seq_ = 0;
  Bytes buffered_;
  std::function<void(Bytes)> on_data_;
  Stats stats_;
};

class TcpLikeSender {
 public:
  struct Stats {
    std::uint64_t bytes_written = 0;
    std::uint64_t segments_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acked_bytes = 0;
    std::uint64_t quenches = 0;
    std::uint64_t write_blocked = 0;
  };

  TcpLikeSender(DatagramService& datagrams, HostId host, Label target,
                TcpLikeConfig config);
  ~TcpLikeSender();

  Status write(Bytes data);
  bool drained() const { return send_buffer_.empty() && unacked_.empty(); }
  void on_drained(std::function<void()> cb) { on_drained_ = std::move(cb); }
  const Stats& stats() const { return stats_; }

 private:
  void pump();
  void handle_ack(rms::Message msg);
  void arm_rto();
  void rto_fire(std::uint64_t generation);
  void send_segment(std::uint64_t seq, const Bytes& data);

  DatagramService& datagrams_;
  sim::Simulator& sim_;
  HostId host_;
  Label target_;
  TcpLikeConfig config_;
  rms::PortId ack_port_id_;
  rms::Port ack_port_;

  Bytes send_buffer_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Bytes> unacked_;
  std::size_t flight_bytes_ = 0;
  std::uint64_t advertised_window_ = ~0ull;
  Time quench_until_ = 0;
  Time current_rto_;
  std::uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;
  bool pump_scheduled_ = false;
  std::function<void()> on_drained_;
  Stats stats_;
};

}  // namespace dash::baseline
