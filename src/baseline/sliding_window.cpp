#include "baseline/sliding_window.h"

#include <algorithm>

#include "util/checksum.h"
#include "util/serialize.h"

namespace dash::baseline {
namespace {

constexpr std::uint8_t kSegData = 1;
constexpr std::uint8_t kSegAck = 2;

/// How long a source quench pauses transmission.
constexpr Time kQuenchBackoff = msec(200);
/// Client bytes the sender buffers before write() blocks.
constexpr std::size_t kSendBuffer = 64 * 1024;

/// Transport header inside the datagram payload: kind + seq (+ checksum —
/// TCP checksums its segment even though the datagram layer already did).
Bytes make_data_segment(std::uint64_t seq, BytesView data) {
  Bytes wire;
  Writer w(wire);
  w.u8(kSegData);
  w.u64(seq);
  w.u16(internet_checksum(data));
  w.bytes(data);
  return wire;
}

}  // namespace

// ============================================================ TcpLikeReceiver

TcpLikeReceiver::TcpLikeReceiver(DatagramService& datagrams, HostId host,
                                 rms::PortId port, TcpLikeConfig config)
    : datagrams_(datagrams), host_(host), port_id_(port), config_(config) {
  // The registry belongs to whoever registered the host; find it through a
  // bind performed by the caller.
  port_.set_handler([this](rms::Message m) { handle(std::move(m)); });
  // Binding happens via DatagramService's registry: the caller registered
  // host 'host'; we reach its registry lazily on the first send. To keep
  // construction simple the receiver binds through the datagram service.
  datagrams_.bind_port(host_, port_id_, &port_);
}

TcpLikeReceiver::~TcpLikeReceiver() { datagrams_.unbind_port(host_, port_id_); }

std::size_t TcpLikeReceiver::buffer_free() const {
  return buffered_.size() >= config_.receive_buffer
             ? 0
             : config_.receive_buffer - buffered_.size();
}

Bytes TcpLikeReceiver::read(std::size_t max) {
  const std::size_t take = std::min(max, buffered_.size());
  Bytes out(buffered_.begin(), buffered_.begin() + static_cast<std::ptrdiff_t>(take));
  buffered_.erase(buffered_.begin(), buffered_.begin() + static_cast<std::ptrdiff_t>(take));
  return out;
}

void TcpLikeReceiver::handle(rms::Message msg) {
  Reader r(msg.data);
  auto kind = r.u8();
  auto seq = r.u64();
  auto checksum = r.u16();
  if (!kind || *kind != kSegData || !seq || !checksum) return;
  Bytes data = r.rest();
  if (internet_checksum(data) != *checksum) return;  // transport checksum

  ++stats_.segments;
  if (*seq < expected_seq_) {
    ++stats_.duplicates;
  } else if (*seq > expected_seq_) {
    ++stats_.out_of_order_dropped;  // go-back-N: future segments discarded
  } else if (data.size() <= buffer_free()) {
    ++expected_seq_;
    stats_.bytes += data.size();
    if (config_.auto_drain) {
      if (on_data_) on_data_(std::move(data));
    } else {
      append(buffered_, data);
    }
  }
  send_ack(msg.source);
}

void TcpLikeReceiver::send_ack(const Label& to) {
  Bytes wire;
  Writer w(wire);
  w.u8(kSegAck);
  w.u64(expected_seq_ == 0 ? ~0ull : expected_seq_ - 1);
  w.u64(buffer_free());
  ++stats_.acks_sent;
  datagrams_.send(host_, port_id_, to, std::move(wire));
}

// ============================================================== TcpLikeSender

TcpLikeSender::TcpLikeSender(DatagramService& datagrams, HostId host, Label target,
                             TcpLikeConfig config)
    : datagrams_(datagrams),
      sim_(datagrams.simulator()),
      host_(host),
      target_(target),
      config_(config),
      current_rto_(config.retransmit_timeout) {
  ack_port_id_ = datagrams_.allocate_port(host_);
  ack_port_.set_handler([this](rms::Message m) { handle_ack(std::move(m)); });
  datagrams_.bind_port(host_, ack_port_id_, &ack_port_);
  datagrams_.on_quench(host_, [this] {
    ++stats_.quenches;
    quench_until_ = sim_.now() + kQuenchBackoff;
  });
  config_.mss = std::min<std::size_t>(
      config_.mss, datagrams_.max_payload() - (1 + 8 + 2) /* segment header */);
}

TcpLikeSender::~TcpLikeSender() { datagrams_.unbind_port(host_, ack_port_id_); }

Status TcpLikeSender::write(Bytes data) {
  if (send_buffer_.size() + data.size() > kSendBuffer) {
    ++stats_.write_blocked;
    return make_error(Errc::kWouldBlock, "send buffer full");
  }
  stats_.bytes_written += data.size();
  append(send_buffer_, data);
  pump();
  return Status::ok_status();
}

void TcpLikeSender::pump() {
  if (sim_.now() < quench_until_) {
    if (!pump_scheduled_) {
      pump_scheduled_ = true;
      sim_.at(quench_until_, [this] {
        pump_scheduled_ = false;
        pump();
      });
    }
    return;
  }
  while (!send_buffer_.empty()) {
    const std::size_t chunk = std::min(config_.mss, send_buffer_.size());
    const std::uint64_t window = std::min(config_.window_bytes, advertised_window_);
    if (flight_bytes_ + chunk > window) return;  // window closed; ack reopens

    Bytes data(send_buffer_.begin(),
               send_buffer_.begin() + static_cast<std::ptrdiff_t>(chunk));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(chunk));
    const std::uint64_t seq = next_seq_++;
    flight_bytes_ += data.size();
    send_segment(seq, data);
    unacked_[seq] = std::move(data);
    arm_rto();
  }
  if (drained() && on_drained_) on_drained_();
}

void TcpLikeSender::send_segment(std::uint64_t seq, const Bytes& data) {
  ++stats_.segments_sent;
  stats_.bytes_sent += data.size();
  datagrams_.send(host_, ack_port_id_, target_, make_data_segment(seq, data));
}

void TcpLikeSender::handle_ack(rms::Message msg) {
  Reader r(msg.data);
  auto kind = r.u8();
  auto cum = r.u64();
  auto window = r.u64();
  if (!kind || *kind != kSegAck || !cum || !window) return;
  advertised_window_ = *window;
  bool progress = false;
  if (*cum != ~0ull) {
    auto it = unacked_.begin();
    while (it != unacked_.end() && it->first <= *cum) {
      flight_bytes_ -= std::min(flight_bytes_, it->second.size());
      stats_.acked_bytes += it->second.size();
      it = unacked_.erase(it);
      progress = true;
    }
  }
  if (progress) {
    // Restart the timer only on progress (see StreamSender::handle_ack).
    current_rto_ = config_.retransmit_timeout;
    ++rto_generation_;
    rto_armed_ = false;
    arm_rto();
  }
  pump();
  if (drained() && on_drained_) on_drained_();
}

void TcpLikeSender::arm_rto() {
  // One timer for the oldest unacked segment; never re-armed per send.
  if (unacked_.empty() || rto_armed_) return;
  rto_armed_ = true;
  const std::uint64_t gen = ++rto_generation_;
  sim_.after(current_rto_, [this, gen] {
    if (gen != rto_generation_) return;
    rto_armed_ = false;
    rto_fire(gen);
  });
}

void TcpLikeSender::rto_fire(std::uint64_t generation) {
  if (generation != rto_generation_ || unacked_.empty()) return;
  // Go-back-N: resend everything outstanding.
  for (const auto& [seq, data] : unacked_) {
    ++stats_.retransmissions;
    send_segment(seq, data);
  }
  current_rto_ = std::min<Time>(current_rto_ * 2, sec(8));
  arm_rto();
}

}  // namespace dash::baseline
