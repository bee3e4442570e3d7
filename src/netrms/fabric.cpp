#include "netrms/fabric.h"

#include <algorithm>
#include <array>

#include "net/internet.h"
#include "net/traits.h"
#include "netrms/cost_model.h"
#include "util/serialize.h"

namespace dash::netrms {
namespace {

constexpr std::uint8_t kDataPacket = 1;

}  // namespace

NetRmsFabric::NetRmsFabric(sim::Simulator& sim, net::Network& network)
    : sim_(sim),
      network_(network),
      admission_(AdmissionController::Config{network.traits().bits_per_second,
                                             network.traits().buffer_bytes}) {
  network_.on_down([this] {
    fail_all(make_error(Errc::kRmsFailed, "network " + network_.traits().name + " down"));
  });
}

NetRmsFabric::~NetRmsFabric() {
  // Senders may outlive the fabric in teardown-order accidents; detach them
  // so their destructors do not touch freed memory.
  for (auto& [id, s] : streams_) {
    (void)id;
    if (s.sender != nullptr) s.sender->detach();
  }
}

void NetRmsFabric::register_host(HostId host, sim::CpuScheduler& cpu,
                                 rms::PortRegistry& ports) {
  HostEntry entry;
  entry.cpu = &cpu;
  entry.ports = &ports;
  hosts_[host] = std::move(entry);
  network_.attach(host, [this, host](net::Packet p) { host_receive(host, std::move(p)); });
}

Result<rms::Params> NetRmsFabric::negotiate(const rms::Request& request) const {
  const auto& traits = network_.traits();
  const rms::Params& desired = request.desired;
  const rms::Params& acceptable = request.acceptable;

  if (!rms::well_formed(desired) || !rms::well_formed(acceptable)) {
    return make_error(Errc::kIncompatibleParams, "malformed request parameters");
  }

  rms::Params actual;

  // Quality: the network can only grant what its hardware/trust provides
  // (§3.1); software security is the ST's job, a layer up. The acceptable
  // set's flags are mandatory; the desired set's flags are granted when
  // they cost nothing here.
  const bool has_privacy = traits.trusted || traits.link_encryption;
  const bool has_auth = traits.trusted;
  const bool has_reliability = traits.bit_error_rate <= 0.0;
  if (acceptable.quality.privacy && !has_privacy) {
    return make_error(Errc::kIncompatibleParams,
                      "network " + traits.name + " cannot provide privacy");
  }
  if (acceptable.quality.authenticated && !has_auth) {
    return make_error(Errc::kIncompatibleParams,
                      "network " + traits.name + " cannot provide authentication");
  }
  if (acceptable.quality.reliable && !has_reliability) {
    return make_error(Errc::kIncompatibleParams,
                      "network " + traits.name + " has a lossy medium; reliability "
                      "must come from a transport protocol");
  }
  actual.quality.privacy = desired.quality.privacy && has_privacy;
  actual.quality.authenticated = desired.quality.authenticated && has_auth;
  actual.quality.reliable = desired.quality.reliable && has_reliability;

  // Maximum message size: the hardware frame limit minus our header (§4.3).
  const std::uint64_t mms_limit = traits.max_packet_bytes > kHeaderBytes
                                      ? traits.max_packet_bytes - kHeaderBytes
                                      : 0;
  actual.max_message_size = std::min<std::uint64_t>(
      desired.max_message_size ? desired.max_message_size : mms_limit, mms_limit);
  if (actual.max_message_size < acceptable.max_message_size) {
    return make_error(Errc::kIncompatibleParams,
                      "maximum message size " + std::to_string(mms_limit) +
                          " below acceptable " +
                          std::to_string(acceptable.max_message_size));
  }

  // Capacity: capped at the network's buffering — promising more bytes
  // outstanding than the buffers can hold would be hollow (§4.4: the
  // capacity parameter exists to prevent overrunning those buffers).
  actual.capacity = std::max(desired.capacity, actual.max_message_size);
  if (traits.buffer_bytes != 0) {
    actual.capacity = std::min<std::uint64_t>(actual.capacity, traits.buffer_bytes);
    if (actual.capacity < acceptable.capacity) {
      return make_error(Errc::kIncompatibleParams,
                        "network buffering cannot support acceptable capacity");
    }
    actual.max_message_size =
        std::min<std::uint64_t>(actual.max_message_size, actual.capacity);
  }

  // Delay bound: cannot beat propagation + one frame transmission.
  const auto limits = quality_limits(traits, actual.quality);
  actual.delay.type = desired.delay.type;
  if (!rms::at_least_as_strong(actual.delay.type, acceptable.delay.type)) {
    actual.delay.type = acceptable.delay.type;
  }
  const Time feasible_a = limits.min_delay_a;
  const Time feasible_b = transmission_time(1, traits.bits_per_second);
  if (acceptable.delay.a < feasible_a || acceptable.delay.b_per_byte < feasible_b) {
    return make_error(Errc::kIncompatibleParams,
                      "acceptable delay bound below network floor of " +
                          format_time(feasible_a));
  }
  actual.delay.a = std::min(std::max(desired.delay.a, feasible_a), acceptable.delay.a);
  actual.delay.b_per_byte =
      std::min(std::max(desired.delay.b_per_byte, feasible_b), acceptable.delay.b_per_byte);
  actual.statistical = desired.statistical;

  // Error rate: the residual after link corruption (caught corruption is
  // loss; uncaught corruption is damage — both count, §2.2).
  actual.bit_error_rate = net::packet_error_probability(
      traits.bit_error_rate, actual.max_message_size + kHeaderBytes);
  if (actual.bit_error_rate > acceptable.bit_error_rate) {
    return make_error(Errc::kIncompatibleParams,
                      "medium error rate exceeds acceptable bit error rate");
  }
  return actual;
}

Result<std::unique_ptr<rms::Rms>> NetRmsFabric::create(HostId src,
                                                            const rms::Request& request,
                                                            const Label& target) {
  auto src_it = hosts_.find(src);
  if (src_it == hosts_.end()) {
    return make_error(Errc::kNoRoute, "source host not registered");
  }
  if (!network_.attached(target.host)) {
    return make_error(Errc::kNoRoute,
                      "host " + std::to_string(target.host) + " not on network " +
                          network_.traits().name);
  }
  // A dead medium cannot honour any guarantee; admitting a stream here
  // would hand the client an RMS that fails on first send. Rejecting lets
  // multi-network callers (ST create, RKOM channel rebuild) fall through
  // to a surviving fabric.
  if (network_.down()) {
    ++stats_.streams_rejected;
    return make_error(Errc::kNoRoute,
                      "network " + network_.traits().name + " is down");
  }

  auto negotiated = negotiate(request);
  if (!negotiated) {
    ++stats_.streams_rejected;
    return negotiated.error();
  }
  rms::Params actual = std::move(negotiated).value();

  const std::uint64_t id = next_stream_++;
  if (auto admitted = admission_.admit(id, actual); !admitted.ok()) {
    ++stats_.streams_rejected;
    return admitted.error();
  }

  Stream s;
  s.id = id;
  s.src = src;
  s.source = Label{src, src_it->second.ports->allocate()};
  s.target = target;
  // Checksum selection with elision (§2.1/§2.5): skip software
  // checksumming when the interface hardware already validates frames,
  // when the medium is error-free, or when the client's acceptable error
  // rate tolerates the raw medium (e.g. digitized voice).
  const auto& traits = network_.traits();
  const double raw_error = net::packet_error_probability(
      traits.bit_error_rate, actual.max_message_size + kHeaderBytes);
  if (traits.hardware_checksum || raw_error <= 0.0 ||
      (!actual.quality.reliable && request.desired.bit_error_rate >= raw_error)) {
    s.checksum = ChecksumKind::kNone;
  } else {
    s.checksum = ChecksumKind::kCrc32;
  }
  s.priority = rms::priority_class(actual.delay.a);
  s.ready_at = sim_.now() + network_.traits().rms_setup_cost;

  // Deterministic streams reserve their capacity in gateway buffers along
  // the path (§4.4: "the capacity parameter prevents overrunning buffers
  // in network switches and gateways").
  // Capacity counts client payload; the reservation adds headroom for the
  // stack's own header overhead so a full window of small messages fits.
  if (actual.delay.type == rms::BoundType::kDeterministic) {
    const std::uint64_t reserve_bytes = actual.capacity + actual.capacity / 2;
    if (!network_.reserve_stream(id, src, target.host, reserve_bytes)) {
      admission_.release(id);
      ++stats_.streams_rejected;
      return make_error(Errc::kAdmissionRejected, "path buffers exhausted");
    }
    s.reserved_buffers = true;
  }

  auto handle = std::unique_ptr<NetworkRms>(new NetworkRms(*this, id, actual));
  if (accounting_ != nullptr) accounting_->on_create(id, src, actual, sim_.now());
  s.params = std::move(actual);
  s.sender = handle.get();
  streams_[id] = std::move(s);
  ++stats_.streams_created;
  return std::unique_ptr<rms::Rms>(std::move(handle));
}

void NetRmsFabric::send_now(Stream& s, rms::Message msg, Time deadline) {
  ++stats_.messages_sent;
  if (accounting_ != nullptr) accounting_->on_send(s.id, msg.size());

  const bool software_checksum = s.checksum != ChecksumKind::kNone;
  const CostModel cost;
  const Time cpu_cost = cost.message_cost(msg.size(), software_checksum,
                                          /*crypto=*/false, /*mac=*/false);
  const std::uint64_t seq = s.next_seq++;
  const std::uint64_t stream_id = s.id;
  HostEntry& host = hosts_.at(s.src);

  // Protocol processing on the sending host, ordered by the message's
  // transmission deadline (§4.1), then onto the interface queue.
  host.cpu->submit(
      deadline, cpu_cost,
      [this, stream_id, seq, deadline, msg = std::move(msg)]() mutable {
        auto it = streams_.find(stream_id);
        if (it == streams_.end()) return;  // closed while queued on the CPU
        Stream& stream = it->second;

        // Header in a fixed stack buffer, prepended to the payload: when
        // the client reserved send_headroom() in its buffer (the ST arena
        // does), the header lands in the reserved gap and the payload is
        // never copied; otherwise prepend() pays the one gather copy.
        std::array<std::byte, kHeaderBytes> header;
        std::size_t at = 0;
        auto put = [&header, &at](std::uint64_t v, int width) {
          for (int i = 0; i < width; ++i) {
            header[at++] = static_cast<std::byte>(v >> (8 * i));
          }
        };
        put(kDataPacket, 1);
        put(stream.id, 8);
        put(seq, 8);
        put(static_cast<std::uint64_t>(msg.sent_at), 8);
        put(compute_checksum(stream.checksum, msg.data), 4);

        net::Packet p;
        p.src = stream.src;
        p.dst = stream.target.host;
        p.stream = stream.id;
        p.deadline = deadline;
        // For the static-priority baseline: the best a priority scheme can
        // do is bucket the deadline slack into coarse classes (no deadline
        // leaves a slack past the last class).
        p.priority = rms::priority_class(std::max<Time>(deadline - sim_.now(), 0));
        p.payload = msg.data.prepend(BytesView(header.data(), header.size()));
        network_.send(std::move(p));
      },
      s.priority);
}

void NetRmsFabric::host_receive(HostId host, net::Packet p) {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) return;
  // Gateway source quench (§3.1) is network input, not an RMS message.
  // RMS streams protect gateway buffers with capacity (§4.4), so the
  // advice is discarded here; never a protocol drop.
  if (p.stream == net::InternetNetwork::kQuenchStream) return;
  // Receive-side protocol processing, also deadline-ordered (§4.1). The
  // checksum-verify cost matches what the sender paid.
  Reader peek(p.payload);
  (void)peek.u8();
  auto sid = peek.u64();
  bool checksummed = false;
  if (sid) {
    auto sit = streams_.find(*sid);
    if (sit != streams_.end()) checksummed = sit->second.checksum != ChecksumKind::kNone;
  }
  const CostModel cost;
  const Time cpu_cost =
      cost.message_cost(p.size() > kHeaderBytes ? p.size() - kHeaderBytes : 0,
                        checksummed, false, false);
  const Time deadline = p.deadline;
  const int priority = p.priority;
  it->second.cpu->submit(
      deadline, cpu_cost,
      [this, host, p = std::move(p)]() mutable { process_delivery(host, std::move(p)); },
      priority);
}

void NetRmsFabric::process_delivery(HostId host, net::Packet p) {
  Reader r(p.payload);
  auto type = r.u8();
  auto stream_id = r.u64();
  auto seq = r.u64();
  auto sent_at = r.i64();
  auto checksum = r.u32();
  if (!type || *type != kDataPacket || !stream_id || !seq || !sent_at || !checksum) {
    ++stats_.protocol_drops;
    return;
  }
  auto it = streams_.find(*stream_id);
  // Stream ids are small and sequential, so any host on the medium can
  // guess one: a packet speaks for a stream only if its source host does.
  if (it == streams_.end() || it->second.src != p.src) {
    ++stats_.protocol_drops;
    return;
  }
  Stream& s = it->second;
  // The delivered payload is a slice of the packet buffer — no copy from
  // the wire to the client; the slice keeps the packet storage alive.
  Buffer data = p.payload.slice(r.pos(), p.payload.size() - r.pos());

  if (s.checksum != ChecksumKind::kNone) {
    if (compute_checksum(s.checksum, data) != *checksum) {
      ++stats_.checksum_drops;
      return;
    }
  } else if (p.corrupted) {
    ++stats_.corrupt_delivered;  // client accepted a raw error rate (§2.5 voice)
  }

  if (*seq < s.max_seq_seen) {
    ++stats_.out_of_order;  // permitted by the §4.3.1 refinement
  } else {
    s.max_seq_seen = *seq;
  }

  auto host_it = hosts_.find(host);
  if (host_it == hosts_.end()) return;
  rms::Port* port = host_it->second.ports->find(s.target.port);
  if (port == nullptr) {
    ++stats_.no_port_drops;
    return;
  }

  rms::Message msg;
  msg.data = std::move(data);
  msg.source = s.source;
  msg.target = s.target;
  msg.sent_at = *sent_at;
  ++stats_.messages_delivered;
  if (delivery_delay_hist_ != nullptr && *sent_at >= 0 && sim_.now() >= *sent_at) {
    delivery_delay_hist_->observe(static_cast<std::uint64_t>(sim_.now() - *sent_at));
  }
  port->deliver(std::move(msg), sim_.now());
}

void NetRmsFabric::set_metrics(telemetry::MetricsRegistry* m) {
  delivery_delay_hist_ =
      m == nullptr
          ? nullptr
          : &m->histogram("netrms." + network_.traits().name + ".delivery_ns");
}

void NetRmsFabric::forget(std::uint64_t stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  if (accounting_ != nullptr) accounting_->on_close(stream, sim_.now());
  admission_.release(stream);
  if (it->second.reserved_buffers) network_.release_stream(stream);
  streams_.erase(it);
}

void NetRmsFabric::fail_all(const Error& e) {
  // fail() triggers client callbacks that may close or re-home *other*
  // streams of this fabric (cached-channel eviction, path failover), so
  // collect ids and re-find each before failing — a raw sender pointer
  // captured up front could be destroyed by an earlier callback.
  std::vector<std::uint64_t> ids;
  ids.reserve(streams_.size());
  for (auto& [id, s] : streams_) {
    (void)id;
    ids.push_back(s.id);
  }
  for (std::uint64_t id : ids) {
    auto it = streams_.find(id);
    if (it == streams_.end() || it->second.sender == nullptr) continue;
    it->second.sender->fail_from_fabric(e);
  }
  // Listener callbacks may add/remove listeners; iterate a copy of tokens.
  std::vector<std::uint64_t> tokens;
  tokens.reserve(failure_listeners_.size());
  for (const auto& [token, cb] : failure_listeners_) {
    (void)cb;
    tokens.push_back(token);
  }
  for (std::uint64_t token : tokens) {
    for (auto& [t, cb] : failure_listeners_) {
      if (t == token && cb) {
        cb(e);
        break;
      }
    }
  }
}

std::uint64_t NetRmsFabric::add_failure_listener(
    std::function<void(const Error&)> cb) {
  const std::uint64_t token = next_listener_token_++;
  failure_listeners_.emplace_back(token, std::move(cb));
  return token;
}

void NetRmsFabric::remove_failure_listener(std::uint64_t token) {
  std::erase_if(failure_listeners_,
                [token](const auto& entry) { return entry.first == token; });
}

NetworkRms::~NetworkRms() {
  if (fabric_ != nullptr) fabric_->forget(stream_);
}

Time NetworkRms::ready_at() const {
  if (fabric_ == nullptr) return 0;
  auto it = fabric_->streams_.find(stream_);
  return it == fabric_->streams_.end() ? 0 : it->second.ready_at;
}

Status NetworkRms::do_send(rms::Message msg, Time transmission_deadline) {
  if (fabric_ == nullptr) return make_error(Errc::kRmsFailed, "fabric destroyed");
  auto it = fabric_->streams_.find(stream_);
  if (it == fabric_->streams_.end()) return make_error(Errc::kClosed, "stream closed");
  NetRmsFabric::Stream& s = it->second;

  sim::Simulator& sim = fabric_->sim_;
  msg.sent_at = sim.now();
  Time deadline = transmission_deadline;
  if (deadline == kTimeNever) {
    deadline = sim.now() + s.params.delay.bound_for(msg.size());
  }

  if (sim.now() < s.ready_at) {
    // Still establishing: queue the send until the stream is usable. The
    // wait is part of the message's measured delay — the cost RMS caching
    // exists to avoid (§4.2). All messages deferred this way share one
    // drain event whose closure stays inside Task's inline storage.
    s.deferred.emplace_back(std::move(msg), deadline);
    if (!s.drain_scheduled) {
      s.drain_scheduled = true;
      const std::uint64_t id = stream_;
      NetRmsFabric* fabric = fabric_;
      sim.at(s.ready_at, [fabric, id] {
        auto sit = fabric->streams_.find(id);
        if (sit == fabric->streams_.end()) return;
        sit->second.drain_scheduled = false;
        auto batch = std::move(sit->second.deferred);
        sit->second.deferred.clear();
        for (auto& [m, d] : batch) {
          // Re-find per message: a send may tear the stream down.
          auto again = fabric->streams_.find(id);
          if (again == fabric->streams_.end()) break;
          fabric->send_now(again->second, std::move(m), d);
        }
      });
    }
    return Status::ok_status();
  }
  fabric_->send_now(s, std::move(msg), deadline);
  return Status::ok_status();
}

void NetworkRms::do_close() {
  if (fabric_ != nullptr) {
    fabric_->forget(stream_);
  }
}

}  // namespace dash::netrms
