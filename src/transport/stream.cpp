#include "transport/stream.h"

#include <algorithm>

#include "util/serialize.h"

namespace dash::transport {
namespace {

constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kAck = 2;

/// Data message: kind + seq + ack port; ack: kind + cumulative seq + window.
constexpr std::size_t kDataHeaderBytes = 1 + 8 + 8;

/// Reliable streams bound un-cum-acknowledged data so a single loss cannot
/// make the sender outrun the receiver's reorder buffer. Should not exceed
/// the peer's StreamConfig::receive_buffer.
constexpr std::size_t kReliableWindow = 32 * 1024;

/// One data message: the header, then `payload`.
Bytes encode_data(std::uint64_t seq, rms::PortId ack_port, BytesView payload) {
  Bytes wire;
  wire.reserve(kDataHeaderBytes + payload.size());
  Writer w(wire);
  w.u8(kData);
  w.u64(seq);
  w.u64(ack_port);
  w.bytes(payload);
  return wire;
}

}  // namespace

rms::Request bulk_data_request(std::uint64_t capacity, std::uint64_t max_message) {
  // §2.5: "A stream protocol for bulk data transfer should use a high
  // capacity, high delay RMS for data."
  rms::Params desired;
  desired.capacity = capacity;
  desired.max_message_size = max_message;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(100);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.capacity = max_message;
  acceptable.max_message_size = max_message;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return rms::Request{desired, acceptable};
}

rms::Request reliability_ack_request() {
  // §2.5: "Reliability acknowledgements should use low capacity, high
  // delay RMS's."
  rms::Params desired;
  desired.capacity = 2048;
  desired.max_message_size = 64;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(200);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.capacity = 64;
  acceptable.max_message_size = 32;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return rms::Request{desired, acceptable};
}

// ============================================================ StreamReceiver

StreamReceiver::StreamReceiver(st::SubtransportLayer& st, rms::PortRegistry& ports,
                               rms::PortId data_port, StreamConfig config)
    : st_(st), ports_(ports), data_port_id_(data_port), config_(config) {
  ports_.bind(data_port_id_, &data_port_);
  data_port_.set_handler([this](rms::Message m) { handle(std::move(m)); });
}

StreamReceiver::~StreamReceiver() { ports_.unbind(data_port_id_); }

std::size_t StreamReceiver::buffer_free() const {
  const std::size_t used = buffered_.size() + reorder_bytes_;
  return used >= config_.receive_buffer ? 0 : config_.receive_buffer - used;
}

Bytes StreamReceiver::read(std::size_t max) {
  const std::size_t take = std::min(max, buffered_.size());
  Bytes out(buffered_.begin(), buffered_.begin() + static_cast<std::ptrdiff_t>(take));
  buffered_.erase(buffered_.begin(), buffered_.begin() + static_cast<std::ptrdiff_t>(take));
  // Freed space widens the advertised window on the next ack; nudge the
  // sender proactively so a stalled stream resumes.
  if (take > 0 && (config_.receiver_flow_control || config_.reliable) &&
      ack_rms_ != nullptr) {
    send_ack();
  }
  return out;
}

void StreamReceiver::handle(rms::Message msg) {
  Reader r(msg.data);
  auto kind = r.u8();
  auto seq = r.u64();
  auto ack_port = r.u64();
  if (!kind || *kind != kData || !seq || !ack_port) return;
  Bytes data = r.rest();

  // A dead reverse path wedges a reliable stream permanently: the sender
  // retransmits forever and every copy lands here as a duplicate, but no
  // cumulative ack ever tells it so. The channel can die long after
  // establishment — an idle-evicted ack RMS re-negotiates on next use,
  // and that control exchange can be lost to a burst. Data arriving is
  // proof the peer is reachable again, so re-open rather than stay stuck.
  if (ack_rms_ != nullptr && ack_rms_->failed()) {
    ack_rms_.reset();
    ++stats_.ack_channel_resets;
  }

  // Lazily open the reverse acknowledgement path (§2.5: low capacity,
  // high delay) the first time we learn the sender's address.
  if (ack_rms_ == nullptr && (config_.reliable || config_.receiver_flow_control)) {
    sender_host_ = msg.source.host;
    sender_ack_port_ = *ack_port;
    auto created = st_.create(reliability_ack_request(),
                              Label{sender_host_, sender_ack_port_});
    if (created) ack_rms_ = std::move(created).value();
  }

  ++stats_.messages;

  if (*seq < expected_seq_) {
    ++stats_.duplicates;  // retransmission of something we already have
  } else if (*seq == expected_seq_) {
    accept(*seq, std::move(data));
    // Drain any stashed successors that are now in order.
    auto it = reorder_.begin();
    while (it != reorder_.end() && it->first == expected_seq_) {
      reorder_bytes_ -= it->second.size();
      Bytes next = std::move(it->second);
      it = reorder_.erase(it);
      accept(expected_seq_, std::move(next));
    }
  } else if (config_.reliable) {
    // Out of order: stash until the gap fills (retransmission).
    ++stats_.out_of_order;
    if (data.size() <= buffer_free() && reorder_.find(*seq) == reorder_.end()) {
      reorder_bytes_ += data.size();
      reorder_[*seq] = std::move(data);
    } else {
      ++stats_.dropped_overflow;
    }
  } else {
    // Unreliable stream: the gap is a loss; deliver and move on.
    ++stats_.out_of_order;
    expected_seq_ = *seq;  // accept() advances past it
    accept(*seq, std::move(data));
  }

  if (config_.reliable || config_.receiver_flow_control) send_ack();
}

void StreamReceiver::accept(std::uint64_t seq, Bytes data) {
  (void)seq;
  // In-order data is what unblocks everything else: if the out-of-order
  // stash has eaten the buffer, evict its newest entries (they will be
  // retransmitted anyway). Otherwise a full stash starves the one message
  // that could drain it — deadlock.
  while (data.size() > buffer_free() && !reorder_.empty()) {
    auto last = std::prev(reorder_.end());
    reorder_bytes_ -= last->second.size();
    reorder_.erase(last);
    ++stats_.dropped_overflow;
  }
  if (data.size() > buffer_free()) {
    // Receive buffer overrun: without receiver flow control the sender
    // can outrun the client; the data is lost here (and, if the stream is
    // reliable, retransmitted later).
    ++stats_.dropped_overflow;
    return;
  }
  ++expected_seq_;
  stats_.bytes += data.size();
  if (config_.auto_drain) {
    if (on_data_) on_data_(std::move(data));
    return;
  }
  append(buffered_, data);
}

void StreamReceiver::send_ack() {
  if (ack_rms_ == nullptr) return;
  Bytes wire;
  Writer w(wire);
  w.u8(kAck);
  w.u64(expected_seq_ == 0 ? ~0ull : expected_seq_ - 1);  // cumulative
  w.u64(config_.receiver_flow_control ? buffer_free() : ~0ull);
  rms::Message m;
  m.data = std::move(wire);
  if (ack_rms_->send(std::move(m)).ok()) ++stats_.acks_sent;
}

// ============================================================== StreamSender

StreamSender::StreamSender(st::SubtransportLayer& st, rms::PortRegistry& ports,
                           Label target, StreamConfig config,
                           const rms::Request& data_request)
    : st_(st),
      ports_(ports),
      sim_(st.simulator()),
      config_(config),
      port_(config.send_port_limit) {
  auto created = st_.create(data_request, target);
  if (!created) {
    creation_error_ = created.error();
    return;
  }
  data_rms_ = std::move(created).value();
  data_st_ = dynamic_cast<st::StRms*>(data_rms_.get());

  config_.message_size = std::min<std::size_t>(
      config_.message_size, data_rms_->params().max_message_size - kDataHeaderBytes);

  ack_port_id_ = ports_.allocate();
  ports_.bind(ack_port_id_, &ack_port_);
  ack_port_.set_handler([this](rms::Message m) { handle_ack(std::move(m)); });

  switch (config_.capacity) {
    case CapacityMode::kNone:
      break;
    case CapacityMode::kRateBased:
      enforcer_ = std::make_unique<RateBasedEnforcer>(sim_, data_rms_->params());
      break;
    case CapacityMode::kTokenBucket:
      enforcer_ = std::make_unique<TokenBucketEnforcer>(sim_, data_rms_->params());
      break;
    case CapacityMode::kAckBased: {
      auto ack_enforcer = std::make_unique<AckBasedEnforcer>(data_rms_->params().capacity);
      // Flow-control acknowledgements ride the ST fast-ack service (§3.2).
      ack_enforcer_ = ack_enforcer.get();
      fast_acked_ = data_st_ != nullptr;
      if (fast_acked_) {
        data_st_->on_fast_ack([this](std::uint64_t seq) { on_fast_ack(seq); });
      }
      enforcer_ = std::move(ack_enforcer);
      break;
    }
  }

  current_rto_ = base_rto();
  // Until the first ack advertises the real window, assume only one
  // message fits — the receiver's buffer size is not knowable in advance.
  if (config_.receiver_flow_control) receiver_window_ = config_.message_size;
  port_.on_readable([this] { pump(); });
}

StreamSender::~StreamSender() {
  if (ack_port_id_ != 0) ports_.unbind(ack_port_id_);
  sim_.cancel(rto_timer_);
  sim_.cancel(pump_timer_);
}

Status StreamSender::write(Bytes data) {
  if (data_rms_ == nullptr) return creation_error_;
  if (data_rms_->failed()) return make_error(Errc::kRmsFailed, "data RMS failed");
  const std::size_t size = data.size();
  auto status = port_.write(std::move(data));
  if (!status.ok()) {
    ++stats_.write_blocked;
    return status;
  }
  stats_.bytes_written += size;
  return Status::ok_status();
}

bool StreamSender::drained() const {
  return port_.empty() && (!config_.reliable || unacked_.empty());
}

void StreamSender::maybe_drained() {
  if (drained() && on_drained_) on_drained_();
}

void StreamSender::pump() {
  if (data_rms_ == nullptr || data_rms_->failed()) return;
  // Reading the IPC port can wake the client (on_writable), whose write
  // re-enters pump via on_readable — before the in-progress chunk has been
  // charged to the window. The guard makes the nested call a no-op; the
  // outer loop re-checks the port anyway.
  if (in_pump_) return;
  in_pump_ = true;
  const auto guard = std::unique_ptr<bool, void (*)(bool*)>(
      &in_pump_, [](bool* flag) { *flag = false; });
  while (!port_.empty()) {
    const std::size_t chunk_size = std::min(config_.message_size, port_.buffered());

    if (config_.receiver_flow_control &&
        flight_bytes_ + chunk_size > receiver_window_) {
      return;  // resumed by the next ack's window advertisement
    }
    if (config_.reliable && flight_bytes_ + chunk_size > kReliableWindow) {
      return;  // resumed when a cumulative ack frees the window
    }
    if (enforcer_ != nullptr && !enforcer_->can_send(chunk_size)) {
      // Rate- or bucket-blocked: wake at the known release time.
      // Window-bound (kTimeNever): only a fast ack can unblock.
      const Time when = enforcer_->next_allowed(chunk_size);
      if (when != kTimeNever && !pump_scheduled_) {
        pump_scheduled_ = true;
        pump_timer_ = sim_.timer_at(when, [this] {
          pump_scheduled_ = false;
          pump();
        });
      }
      return;
    }
    send_chunk(port_.read(chunk_size));
  }
  maybe_drained();
}

void StreamSender::send_chunk(Bytes chunk) {
  const std::uint64_t seq = next_seq_++;
  Bytes wire = encode_data(seq, ack_port_id_, chunk);

  const std::size_t size = chunk.size();
  if (config_.reliable || config_.receiver_flow_control) {
    unacked_[seq] = Unacked{std::move(chunk), sim_.now(), 0};
    flight_bytes_ += size;
  }
  if (enforcer_ != nullptr) enforcer_->note_sent(size);

  rms::Message m;
  m.data = std::move(wire);
  ++stats_.messages_sent;
  stats_.bytes_sent += size;

  if (fast_acked_) {
    fast_ack_sizes_[seq] = size;
    (void)data_st_->send_acked(std::move(m), seq);
  } else {
    (void)data_rms_->send(std::move(m));
  }
  if (config_.reliable) arm_rto();
}

void StreamSender::on_fast_ack(std::uint64_t seq) {
  auto it = fast_ack_sizes_.find(seq);
  if (it == fast_ack_sizes_.end()) return;  // already released by a cum ack
  enforcer_->note_acked(it->second);
  fast_ack_sizes_.erase(it);
  pump();
}

Time StreamSender::base_rto() const {
  if (!config_.adaptive_rto) return config_.retransmit_timeout;
  return rtt_.rto(config_.min_rto, config_.max_rto, config_.retransmit_timeout);
}

void StreamSender::sample_rtt(Time rtt) {
  if (rtt < 0) return;
  rtt_.sample(rtt);
  ++stats_.rtt_samples;
}

void StreamSender::handle_ack(rms::Message msg) {
  Reader r(msg.data);
  auto kind = r.u8();
  auto cum = r.u64();
  auto window = r.u64();
  if (!kind || *kind != kAck || !cum || !window) return;
  ++stats_.acks_received;
  receiver_window_ = *window;

  bool progress = false;
  // The RTO guards the cumulative-ack round trip, so the estimator samples
  // it here — from the newest message this ack covers (Karn's rule: skip
  // anything retransmitted, its ack is ambiguous). Fast-ack RTTs are NOT
  // used: they ride the forward network, not the low-capacity reverse RMS,
  // and would produce an RTO smaller than a healthy ack round trip.
  Time rtt_sample = -1;
  if (*cum != ~0ull) {
    auto it = unacked_.begin();
    while (it != unacked_.end() && it->first <= *cum) {
      flight_bytes_ -= std::min(flight_bytes_, it->second.data.size());
      stats_.acked_bytes += it->second.data.size();
      if (it->second.retx == 0) rtt_sample = sim_.now() - it->second.first_sent;
      // A cumulatively-acknowledged message is certainly out of the RMS;
      // if its fast ack was lost, release the capacity charge here instead
      // of leaking it (which would wedge the enforcer permanently).
      auto fa = fast_ack_sizes_.find(it->first);
      if (fa != fast_ack_sizes_.end()) {
        enforcer_->note_acked(fa->second);
        fast_ack_sizes_.erase(fa);
      }
      it = unacked_.erase(it);
      progress = true;
    }
  }
  sample_rtt(rtt_sample);
  if (config_.reliable && progress) {
    // Progress resets the backoff and restarts the timer for the new
    // oldest unacked message. A no-progress (duplicate) ack must NOT touch
    // the timer, or a continuous ack stream would postpone retransmission
    // of the lost message forever.
    current_rto_ = base_rto();
    sim_.cancel(rto_timer_);
    arm_rto();
  }
  pump();
  maybe_drained();
}

void StreamSender::arm_rto() {
  // One timer guards the *oldest* unacked message. Re-arming on every send
  // would let a continuously-sending stream postpone retransmission
  // forever while a lost message stalls the receiver.
  if (unacked_.empty() || sim_.timer_active(rto_timer_)) return;
  rto_timer_ = sim_.timer_after(current_rto_, [this] { rto_fire(); });
}

void StreamSender::retransmit(std::uint64_t seq, Unacked& entry) {
  Bytes wire = encode_data(seq, ack_port_id_, entry.data);
  // Ack-based capacity: if the seq's original charge is still pending (no
  // fast ack yet), the retransmitted copy rides it. If the charge was
  // already released (the original arrived but the transport ack raced
  // the RTO), the copy is new in-network data and must re-charge. Rate and
  // bucket capacity charge every copy.
  if (fast_acked_) {
    if (fast_ack_sizes_.find(seq) == fast_ack_sizes_.end()) {
      enforcer_->note_sent(entry.data.size());
      fast_ack_sizes_[seq] = entry.data.size();
    }
  } else if (enforcer_ != nullptr) {
    enforcer_->note_sent(entry.data.size());
  }
  ++entry.retx;
  rms::Message m;
  m.data = std::move(wire);
  ++stats_.messages_sent;
  ++stats_.retransmissions;
  stats_.bytes_sent += entry.data.size();
  if (fast_acked_) {
    (void)data_st_->send_acked(std::move(m), seq);
  } else {
    (void)data_rms_->send(std::move(m));
  }
}

void StreamSender::rto_fire() {
  if (unacked_.empty()) return;
  if (data_rms_ == nullptr || data_rms_->failed()) return;

  // Go-back from the oldest unacked, but pace the burst: re-blasting the
  // whole backlog at once just overruns the same buffers again.
  constexpr int kRetransmitBurst = 16;
  int sent = 0;
  for (auto& [seq, entry] : unacked_) {
    if (sent >= kRetransmitBurst) break;
    if (!fast_acked_ && enforcer_ != nullptr &&
        !enforcer_->can_send(entry.data.size())) {
      break;  // retransmissions also respect the shaping envelope
    }
    retransmit(seq, entry);
    ++sent;
  }
  current_rto_ =
      std::min<Time>(current_rto_ * 2, config_.max_rto);  // exponential backoff
  arm_rto();
}

}  // namespace dash::transport
