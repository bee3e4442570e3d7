#include "net/link.h"

#include <algorithm>

#include "net/traits.h"

namespace dash::net {

bool SimplexLink::send(Packet p) {
  if (down_) {
    ++stats_.dropped_down;
    return false;
  }
  if (!admit(p)) {
    ++stats_.dropped_overflow;
    return false;
  }
  const std::size_t size = p.size();
  if (!queue_.push(std::move(p))) {
    // admit() already checked capacity; TxQueue is configured unbounded to
    // keep one source of truth, so this cannot happen.
    ++stats_.dropped_overflow;
    return false;
  }
  // Track occupancy for the stream-share accounting undone in note_popped.
  (void)size;
  ++stats_.sent;
  if (!busy_) try_transmit();
  return true;
}

bool SimplexLink::admit(const Packet& p) {
  if (config_.buffer_bytes == 0) {
    stream_queued_[p.stream] += p.size();
    return true;  // unbounded
  }
  const std::uint64_t size = p.size();
  auto res = reservation_.find(p.stream);
  std::uint64_t& queued = stream_queued_[p.stream];
  if (res != reservation_.end() && queued + size <= res->second) {
    // Within the stream's reserved share: always admitted.
    queued += size;
    return true;
  }
  // Charge the shared pool (buffer minus all reservations).
  const std::uint64_t shared_pool =
      config_.buffer_bytes > reserved_total_ ? config_.buffer_bytes - reserved_total_ : 0;
  if (shared_queued_ + size > shared_pool) return false;
  shared_queued_ += size;
  queued += size;
  return true;
}

void SimplexLink::note_popped(const Packet& p) {
  auto it = stream_queued_.find(p.stream);
  if (it == stream_queued_.end()) return;
  const std::uint64_t size = p.size();
  auto res = reservation_.find(p.stream);
  const std::uint64_t reserved = res == reservation_.end() ? 0 : res->second;
  // Bytes beyond the reservation were charged to the shared pool; release
  // from the shared pool first so the accounting mirrors admit().
  if (it->second > reserved) {
    const std::uint64_t over = std::min(size, it->second - reserved);
    shared_queued_ -= std::min(shared_queued_, over);
  }
  it->second -= std::min(it->second, size);
  if (it->second == 0) stream_queued_.erase(it);
}

bool SimplexLink::reserve(std::uint64_t stream, std::uint64_t bytes) {
  if (config_.buffer_bytes != 0 && reserved_total_ + bytes > config_.buffer_bytes) {
    return false;
  }
  release(stream);
  reservation_[stream] = bytes;
  reserved_total_ += bytes;
  return true;
}

void SimplexLink::release(std::uint64_t stream) {
  auto it = reservation_.find(stream);
  if (it == reservation_.end()) return;
  reserved_total_ -= it->second;
  reservation_.erase(it);
}

void SimplexLink::set_down(bool down) {
  const bool was_down = down_;
  down_ = down;
  if (down_ && !was_down) {
    // Flush the queue: a dead link delivers nothing.
    while (auto p = queue_.pop()) {
      note_popped(*p);
      ++stats_.dropped_down;
    }
    for (const auto& cb : down_cbs_) cb();
  }
}

void SimplexLink::try_transmit() {
  auto p = queue_.pop();
  if (!p) {
    busy_ = false;
    return;
  }
  note_popped(*p);
  busy_ = true;
  const Time tx = transmission_time(p->size() + config_.framing_bytes,
                                    config_.bits_per_second);
  stats_.busy_time += tx;
  sim_.after(tx, [this, pkt = std::move(*p)]() mutable {
    // The wire is free as soon as the last bit leaves; delivery happens
    // after propagation, possibly overlapping the next transmission.
    sim_.after(config_.propagation_delay,
               [this, pkt = std::move(pkt)]() mutable { deliver(std::move(pkt)); });
    try_transmit();
  });
}

void SimplexLink::deliver(Packet p) {
  if (down_) {
    ++stats_.dropped_down;
    return;
  }
  if (corrupt_bits(p, config_.bit_error_rate, rng_)) ++stats_.corrupted;
  ++stats_.delivered;
  stats_.bytes_delivered += p.size();
  if (sink_) sink_(std::move(p));
}

}  // namespace dash::net
