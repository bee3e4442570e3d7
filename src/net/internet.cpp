#include "net/internet.h"

#include <algorithm>
#include <cassert>

namespace dash::net {

NetworkTraits internet_traits(std::string name) {
  NetworkTraits t;
  t.name = std::move(name);
  t.physical_broadcast = false;
  t.bits_per_second = 1'544'000;  // T1 trunk
  t.propagation_delay = msec(20);
  t.max_packet_bytes = 576;  // classic internet default MTU
  t.bit_error_rate = 1e-7;
  t.buffer_bytes = 32 * 1024;
  t.rms_setup_cost = msec(50);
  return t;
}

SimplexLink::Config internet_trunk_config(const NetworkTraits& traits,
                                          Discipline discipline) {
  SimplexLink::Config c;
  c.bits_per_second = traits.bits_per_second;
  c.propagation_delay = traits.propagation_delay;
  c.bit_error_rate = traits.bit_error_rate;
  c.discipline = discipline;
  c.buffer_bytes = traits.buffer_bytes;
  return c;
}

InternetNetwork::InternetNetwork(sim::Simulator& sim, NetworkTraits traits,
                                 std::uint64_t seed, Discipline discipline)
    : Network(sim, std::move(traits)), discipline_(discipline), rng_(seed) {}

InternetNetwork::RouterId InternetNetwork::add_router(Time processing_delay) {
  routers_.push_back(std::make_unique<Router>());
  routers_.back()->processing_delay = processing_delay;
  routes_dirty_ = true;
  return static_cast<RouterId>(routers_.size() - 1);
}

void InternetNetwork::add_trunk(RouterId a, RouterId b, SimplexLink::Config config) {
  assert(a != b && a < routers_.size() && b < routers_.size());
  assert(routers_[a]->trunks.count(b) == 0 && "duplicate trunk");
  auto make = [&](RouterId to) {
    auto link = std::make_unique<SimplexLink>(sim_, config, rng_.fork());
    link->set_sink([this, to](Packet p) { forward(to, std::move(p)); });
    return link;
  };
  routers_[a]->trunks[b] = make(b);
  routers_[b]->trunks[a] = make(a);
  routes_dirty_ = true;
}

void InternetNetwork::attach_host(HostId host, RouterId router,
                                  SimplexLink::Config config) {
  assert(router < routers_.size());
  HostPort port;
  port.router = router;
  port.access_up = std::make_unique<SimplexLink>(sim_, config, rng_.fork());
  port.access_up->set_sink([this, router](Packet p) { forward(router, std::move(p)); });
  hosts_[host] = std::move(port);

  auto down = std::make_unique<SimplexLink>(sim_, config, rng_.fork());
  down->set_sink([this](Packet p) { deliver(std::move(p)); });
  routers_[router]->access_down[host] = std::move(down);
}

void InternetNetwork::attach(HostId host, PacketSink sink) {
  auto it = hosts_.find(host);
  assert(it != hosts_.end() && "attach_host(host, router, config) must come first");
  it->second.sink = std::move(sink);
}

bool InternetNetwork::attached(HostId host) const {
  auto it = hosts_.find(host);
  return it != hosts_.end() && it->second.sink != nullptr;
}

bool InternetNetwork::send(Packet p) {
  if (down()) {
    ++stats_.dropped;
    return false;
  }
  auto it = hosts_.find(p.src);
  if (it == hosts_.end()) {
    ++stats_.dropped;
    return false;
  }
  if (p.size() > traits_.max_packet_bytes) {
    ++stats_.dropped;
    return false;
  }
  p.seq = next_seq();
  if (!it->second.access_up->send(std::move(p))) {
    ++stats_.dropped;
    return false;
  }
  ++stats_.sent;
  return true;
}

void InternetNetwork::forward(RouterId at, Packet p) {
  if (down()) {
    ++stats_.dropped;
    return;
  }
  run_taps(p);  // a wiretap on the gateway sees forwarded traffic
  const bool local = routers_[at]->access_down.count(p.dst) != 0;
  // Charge gateway processing before the packet joins an output queue.
  sim_.after(routers_[at]->processing_delay,
             [this, at, local, p = std::move(p)]() mutable {
               Router& router = *routers_[at];
               if (local) {
                 auto out = router.access_down.find(p.dst);
                 if (out == router.access_down.end() ||
                     !out->second->send(std::move(p))) {
                   ++stats_.dropped;
                   ++drops_.access;
                 }
                 return;
               }
               auto hit = hosts_.find(p.dst);
               if (hit == hosts_.end()) {
                 ++stats_.dropped;
                 ++drops_.no_route;
                 return;
               }
               const RouterId nh = next_hop(at, hit->second.router);
               if (nh == kNoRoute) {
                 ++stats_.dropped;  // partitioned
                 ++drops_.no_route;
                 return;
               }
               const HostId src = p.src;
               const std::uint64_t stream = p.stream;
               if (!router.trunks.at(nh)->send(std::move(p))) {
                 ++stats_.dropped;
                 ++drops_.trunk_full;
                 if (source_quench_) send_quench(src, stream);
               }
             });
}

void InternetNetwork::send_quench(HostId to, std::uint64_t dropped_stream) {
  auto it = hosts_.find(to);
  if (it == hosts_.end() || !it->second.sink) return;
  Packet quench;
  quench.src = kBroadcast;  // "the network" speaks
  quench.dst = to;
  quench.stream = kQuenchStream;
  Bytes body;
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<std::byte>(dropped_stream >> (8 * i)));
  }
  quench.payload = std::move(body);
  // Delivered after one trunk propagation, bypassing queues (ICMP is
  // small and rarely queued in this model).
  sim_.after(traits_.propagation_delay,
             [this, quench = std::move(quench)]() mutable {
               auto hit = hosts_.find(quench.dst);
               if (hit != hosts_.end() && hit->second.sink) {
                 hit->second.sink(std::move(quench));
               }
             });
}

void InternetNetwork::dispatch(Packet p) {
  auto it = hosts_.find(p.dst);
  hand_to(it == hosts_.end() ? nullptr : &it->second.sink, std::move(p));
}

void InternetNetwork::rebuild_routes() const {
  const std::size_t n = routers_.size();
  hops_.assign(n, std::vector<std::uint32_t>(n, kUnreachable));
  std::vector<RouterId> queue;
  queue.reserve(n);
  for (RouterId target = 0; target < n; ++target) {
    std::vector<std::uint32_t>& dist = hops_[target];
    dist[target] = 0;
    queue.assign(1, target);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const RouterId u = queue[head];
      for (const auto& [v, link] : routers_[u]->trunks) {
        if (link->down() || dist[v] != kUnreachable) continue;
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  routes_dirty_ = false;
  ++route_recomputes_;
}

InternetNetwork::RouterId InternetNetwork::next_hop(RouterId at, RouterId target) const {
  if (routes_dirty_) rebuild_routes();
  const std::vector<std::uint32_t>& dist = hops_[target];
  if (dist[at] == kUnreachable) return kNoRoute;  // partitioned
  for (const auto& [nb, link] : routers_[at]->trunks) {
    if (!link->down() && dist[nb] == dist[at] - 1) return nb;
  }
  return kNoRoute;
}

std::vector<SimplexLink*> InternetNetwork::path_links(HostId src, HostId dst) const {
  std::vector<SimplexLink*> links;
  auto sit = hosts_.find(src);
  auto dit = hosts_.find(dst);
  if (sit == hosts_.end() || dit == hosts_.end()) return links;

  // Walk the same next hops forwarding will take, so a reservation pins
  // down exactly the trunks the stream traverses.
  links.push_back(sit->second.access_up.get());
  RouterId at = sit->second.router;
  const RouterId target = dit->second.router;
  while (at != target) {
    const RouterId nh = next_hop(at, target);
    if (nh == kNoRoute) return {};  // partitioned
    links.push_back(routers_[at]->trunks.at(nh).get());
    at = nh;
  }
  links.push_back(routers_[target]->access_down.at(dst).get());
  return links;
}

bool InternetNetwork::reserve_stream(std::uint64_t stream, HostId src, HostId dst,
                                     std::uint64_t bytes) {
  auto links = path_links(src, dst);
  if (links.empty()) return false;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!links[i]->reserve(stream, bytes)) {
      for (std::size_t j = 0; j < i; ++j) links[j]->release(stream);
      return false;
    }
  }
  stream_reservations_[stream] = std::move(links);
  return true;
}

void InternetNetwork::release_stream(std::uint64_t stream) {
  auto it = stream_reservations_.find(stream);
  if (it == stream_reservations_.end()) return;
  for (SimplexLink* link : it->second) link->release(stream);
  stream_reservations_.erase(it);
}

void InternetNetwork::set_trunk_down(RouterId a, RouterId b, bool down) {
  routers_.at(a)->trunks.at(b)->set_down(down);
  routers_.at(b)->trunks.at(a)->set_down(down);
  routes_dirty_ = true;
}

std::uint64_t InternetNetwork::trunk_backlog(RouterId a, RouterId b) const {
  return routers_.at(a)->trunks.at(b)->queued_bytes();
}

const SimplexLink::Stats* InternetNetwork::trunk_stats(RouterId a, RouterId b) const {
  auto it = routers_.at(a)->trunks.find(b);
  return it == routers_.at(a)->trunks.end() ? nullptr : &it->second->stats();
}

std::uint64_t InternetNetwork::gateway_drops() const {
  std::uint64_t total = 0;
  for (const auto& router : routers_) {
    for (const auto& [id, link] : router->trunks) {
      (void)id;
      total += link->stats().dropped_overflow;
    }
    for (const auto& [id, link] : router->access_down) {
      (void)id;
      total += link->stats().dropped_overflow;
    }
  }
  return total;
}

std::size_t InternetNetwork::route_hops(HostId src, HostId dst) const {
  auto links = path_links(src, dst);
  return links.size() >= 2 ? links.size() - 2 : 0;
}

std::unique_ptr<InternetNetwork> make_dumbbell(
    sim::Simulator& sim, NetworkTraits traits, std::uint64_t seed,
    const std::vector<HostId>& left, const std::vector<HostId>& right,
    Discipline discipline) {
  auto net = std::make_unique<InternetNetwork>(sim, traits, seed, discipline);
  const auto gw_l = net->add_router();
  const auto gw_r = net->add_router();
  net->add_trunk(gw_l, gw_r, internet_trunk_config(net->traits(), discipline));

  SimplexLink::Config access;
  access.bits_per_second = 10'000'000;  // fast local access
  access.propagation_delay = usec(100);
  access.bit_error_rate = 0.0;
  access.discipline = discipline;
  access.buffer_bytes = net->traits().buffer_bytes;
  for (HostId h : left) net->attach_host(h, gw_l, access);
  for (HostId h : right) net->attach_host(h, gw_r, access);
  return net;
}

}  // namespace dash::net
