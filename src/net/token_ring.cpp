#include "net/token_ring.h"

#include <cassert>

namespace dash::net {
namespace {

/// Token pass latency between adjacent stations (token frame + station
/// latency + segment propagation).
constexpr Time kTokenPassTime = usec(30);
/// Physical signal propagation around the ring (frame -> destination).
constexpr Time kRingPropagation = usec(50);

}  // namespace

NetworkTraits token_ring_traits(std::string name, int expected_stations,
                                TokenRingNetwork::RingConfig ring) {
  NetworkTraits t;
  t.name = std::move(name);
  t.physical_broadcast = true;  // every frame passes every station
  t.bits_per_second = 4'000'000;
  // The delay floor must cover worst-case media access: a full token
  // rotation. It is folded into the propagation figure so the generic
  // quality_limits()/negotiation path prices ring access correctly.
  const Time rotation = static_cast<Time>(expected_stations) *
                        (ring.token_holding_time + kTokenPassTime);
  t.propagation_delay = kRingPropagation + rotation;
  t.max_packet_bytes = 4096;  // token rings carried larger frames
  t.bit_error_rate = 0.0;
  t.buffer_bytes = 64 * 1024;
  t.rms_setup_cost = msec(1);
  return t;
}

TokenRingNetwork::TokenRingNetwork(sim::Simulator& sim, NetworkTraits traits,
                                   std::uint64_t seed, RingConfig ring,
                                   Discipline discipline)
    : Network(sim, std::move(traits)),
      ring_(ring),
      discipline_(discipline),
      rng_(seed) {}

void TokenRingNetwork::attach(HostId host, PacketSink sink) {
  assert(index_of_.find(host) == index_of_.end());
  Station station;
  station.host = host;
  station.queue = std::make_unique<TxQueue>(discipline_, traits_.buffer_bytes);
  station.sink = std::move(sink);
  index_of_[host] = stations_.size();
  stations_.push_back(std::move(station));
}

bool TokenRingNetwork::attached(HostId host) const {
  return index_of_.find(host) != index_of_.end();
}

Time TokenRingNetwork::worst_case_rotation() const {
  return static_cast<Time>(stations_.size()) *
         (ring_.token_holding_time + kTokenPassTime);
}

Time TokenRingNetwork::access_bound() const {
  return worst_case_rotation() +
         transmission_time(traits_.max_packet_bytes, traits_.bits_per_second) +
         traits_.propagation_delay;
}

std::uint64_t TokenRingNetwork::station_backlog(HostId host) const {
  auto it = index_of_.find(host);
  return it == index_of_.end() ? 0 : stations_[it->second].queue->bytes();
}

bool TokenRingNetwork::ring_has_traffic() const {
  for (const auto& s : stations_) {
    if (!s.queue->empty()) return true;
  }
  return false;
}

bool TokenRingNetwork::send(Packet p) {
  if (down()) {
    ++stats_.dropped;
    return false;
  }
  auto it = index_of_.find(p.src);
  if (it == index_of_.end() || p.size() > traits_.max_packet_bytes) {
    ++stats_.dropped;
    return false;
  }
  p.seq = next_seq();
  if (!stations_[it->second].queue->push(std::move(p))) {
    ++stats_.dropped;
    return false;
  }
  ++stats_.sent;
  if (!token_moving_) {
    // Resume the parked token from where it stopped; it must still walk
    // the ring to reach the sender, paying the true access latency.
    token_moving_ = true;
    sim_.after(kTokenPassTime, [this] { grant(token_at_); });
  }
  return true;
}

void TokenRingNetwork::grant(std::size_t index) {
  if (down() || stations_.empty()) {
    token_moving_ = false;
    return;
  }
  token_at_ = index;
  Station& station = stations_[index];

  // Transmit queued frames within the token-holding time. The TxQueue has
  // no peek, so pop-and-maybe-push-back; the discipline's heap restores
  // the frame's position.
  Time used = 0;
  while (!station.queue->empty()) {
    auto p = station.queue->pop();
    if (!p) break;
    const Time frame_tx = transmission_time(p->size() + 21 /* ring framing */,
                                            traits_.bits_per_second);
    if (used > 0 && used + frame_tx > ring_.token_holding_time) {
      station.queue->push(std::move(*p));
      break;
    }
    used += frame_tx;
    sim_.after(used + kRingPropagation,
               [this, pkt = std::move(*p)]() mutable { deliver(std::move(pkt)); });
    if (used >= ring_.token_holding_time) break;
  }

  // Pass the token once the visit ends.
  const std::size_t next = (index + 1) % stations_.size();
  if (next == 0) ++rotations_;
  sim_.after(used + kTokenPassTime, [this, next] {
    token_at_ = next;
    if (ring_has_traffic()) {
      grant(next);
    } else {
      token_moving_ = false;  // park here; send() resumes
    }
  });
}

void TokenRingNetwork::on_arrival(Packet& p) {
  corrupt_bits(p, traits_.bit_error_rate, rng_);
  run_taps(p);  // physical broadcast: every station saw the frame
}

void TokenRingNetwork::dispatch(Packet p) {
  if (p.dst == kBroadcast) {
    for (auto& s : stations_) {
      if (s.host != p.src && s.sink) hand_to(&s.sink, p);
    }
    return;
  }
  auto it = index_of_.find(p.dst);
  hand_to(it == index_of_.end() ? nullptr : &stations_[it->second].sink, std::move(p));
}

}  // namespace dash::net
