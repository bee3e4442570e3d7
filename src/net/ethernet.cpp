#include "net/ethernet.h"

#include <cassert>

namespace dash::net {

NetworkTraits ethernet_traits(std::string name) {
  NetworkTraits t;
  t.name = std::move(name);
  t.physical_broadcast = true;
  t.bits_per_second = 10'000'000;
  t.propagation_delay = usec(10);
  t.max_packet_bytes = 1500;
  t.bit_error_rate = 0.0;
  t.buffer_bytes = 64 * 1024;
  t.rms_setup_cost = msec(1);
  return t;
}

EthernetNetwork::EthernetNetwork(sim::Simulator& sim, NetworkTraits traits,
                                 std::uint64_t seed, Discipline discipline)
    : Network(sim, std::move(traits)), discipline_(discipline), rng_(seed) {}

void EthernetNetwork::attach(HostId host, PacketSink sink) {
  auto iface = std::make_unique<Interface>(discipline_, traits_.buffer_bytes);
  iface->sink = std::move(sink);
  interfaces_[host] = std::move(iface);
}

bool EthernetNetwork::attached(HostId host) const {
  return interfaces_.count(host) != 0;
}

std::uint64_t EthernetNetwork::interface_backlog(HostId host) const {
  auto it = interfaces_.find(host);
  return it == interfaces_.end() ? 0 : it->second->queue.bytes();
}

std::uint64_t EthernetNetwork::interface_dropped(HostId host) const {
  auto it = interfaces_.find(host);
  return it == interfaces_.end() ? 0 : it->second->queue.dropped();
}

bool EthernetNetwork::send(Packet p) {
  auto it = interfaces_.find(p.src);
  if (it == interfaces_.end() || down()) {
    ++stats_.dropped;
    return false;
  }
  if (p.size() > traits_.max_packet_bytes) {
    // Hardware frame limit: oversized sends are a programming error in the
    // layer above (the ST fragments); drop and count.
    ++stats_.dropped;
    return false;
  }
  p.seq = next_seq();
  if (!it->second->queue.push(std::move(p))) {
    ++stats_.dropped;
    return false;
  }
  ++stats_.sent;
  if (!medium_busy_) arbitrate();
  return true;
}

void EthernetNetwork::arbitrate() {
  // Grant the interface whose head packet is most urgent. With the
  // deadline discipline this makes the whole segment one EDF server.
  HostId best = 0;
  bool found = false;
  Time best_deadline = kTimeNever;
  std::uint64_t best_seq = 0;
  for (const auto& [host, iface] : interfaces_) {
    if (iface->queue.empty()) continue;
    const Time d = iface->queue.head_deadline();
    // For FIFO/priority disciplines head_deadline still breaks ties; the
    // per-interface queue already ordered by the discipline.
    if (!found || d < best_deadline ||
        (d == best_deadline && iface->queue.pushed() < best_seq)) {
      best = host;
      best_deadline = d;
      best_seq = iface->queue.pushed();
      found = true;
    }
  }
  if (!found) {
    medium_busy_ = false;
    return;
  }
  transmit(best);
}

void EthernetNetwork::transmit(HostId from) {
  auto& iface = *interfaces_.at(from);
  auto p = iface.queue.pop();
  assert(p.has_value());
  medium_busy_ = true;
  const Time tx = transmission_time(p->size() + 24 /* preamble+header+FCS */,
                                    traits_.bits_per_second);
  sim_.after(tx, [this, pkt = std::move(*p)]() mutable {
    sim_.after(traits_.propagation_delay,
               [this, pkt = std::move(pkt)]() mutable { deliver(std::move(pkt)); });
    arbitrate();
  });
}

void EthernetNetwork::on_arrival(Packet& p) {
  // Bit errors hit the shared medium once; every tap then sees the frame
  // as transmitted (physical broadcast).
  corrupt_bits(p, traits_.bit_error_rate, rng_);
  run_taps(p);
}

void EthernetNetwork::dispatch(Packet p) {
  if (p.dst == kBroadcast) {
    for (auto& [host, iface] : interfaces_) {
      if (host != p.src && iface->sink) hand_to(&iface->sink, p);
    }
    return;
  }
  auto it = interfaces_.find(p.dst);
  hand_to(it == interfaces_.end() ? nullptr : &it->second->sink, std::move(p));
}

}  // namespace dash::net
