#include "st/st.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "netrms/cost_model.h"
#include "util/serialize.h"

namespace dash::st {
namespace {

/// The control channel: two low-capacity, low-delay network RMS (§3.2).
rms::Request control_channel_request() {
  rms::Params desired;
  desired.capacity = 4096;
  desired.max_message_size = kControlMaxMessage;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(2);
  desired.delay.b_per_byte = usec(2);
  desired.bit_error_rate = 1e-9;  // want integrity on control traffic

  rms::Params acceptable = desired;
  acceptable.delay.a = sec(2);
  acceptable.delay.b_per_byte = usec(200);
  acceptable.bit_error_rate = 0.1;
  return rms::Request{desired, acceptable};
}

/// Per-stage protocol-processing allowance included in the ST delay bound
/// (send-side and receive-side, §4.1).
constexpr Time kCpuStageAllowance = usec(500);

/// How long the receiving ST holds a fast ack for company before its batch
/// leaves (§3.2). Well under the time one 32 KB capacity window lasts at
/// 115 MB/s (~285 µs), so a held ack never stalls an ack-based sender.
constexpr Time kFastAckHold = usec(100);

/// Control-channel request/reply pacing: a request is retransmitted every
/// kControlRetryTimeout until answered, and gives up (failing the
/// dependent stream) after kControlRetries attempts — riding out a
/// partition that heals within ~1.25 s.
constexpr Time kControlRetryTimeout = msec(250);
constexpr int kControlRetries = 5;

/// Cap on the ST maximum message size (§4.3: "somewhat larger ... may
/// reduce protocol process context switching and other overhead").
constexpr std::uint64_t kMaxMessageSize = 64 * 1024;

/// Bounds of the per-stream handoff buffer a reliable ST RMS keeps while a
/// StreamObserver (the path manager) is attached: unacknowledged messages
/// retained for replay after a network failover. Overflow evicts the
/// oldest entry (counted in Stats::handoff_dropped).
constexpr std::size_t kHandoffMaxMessages = 256;
constexpr std::size_t kHandoffMaxBytes = 256 * 1024;

std::uint64_t component_nonce(std::uint64_t st_id, std::uint64_t seq,
                              std::uint16_t frag_index) {
  return (st_id << 40) ^ (seq << 8) ^ frag_index;
}

}  // namespace

// ===================================================================== StRms

StRms::~StRms() {
  if (st_ != nullptr) st_->release_stream(*this);
}

Status StRms::do_send(rms::Message msg, Time transmission_deadline) {
  if (st_ == nullptr) return make_error(Errc::kClosed, "subtransport destroyed");
  return st_->submit(*this, std::move(msg), 0, false, transmission_deadline);
}

Status StRms::send_acked(rms::Message msg, std::uint64_t ack_id) {
  if (st_ == nullptr) return make_error(Errc::kClosed, "subtransport destroyed");
  if (closed()) return make_error(Errc::kClosed, "send on closed RMS");
  if (failed()) return make_error(Errc::kRmsFailed, "send on failed RMS");
  if (msg.size() > params().max_message_size) {
    return make_error(Errc::kMessageTooLarge, "message exceeds ST maximum");
  }
  return st_->submit(*this, std::move(msg), ack_id, true, kTimeNever);
}

void StRms::do_close() {
  if (st_ != nullptr) st_->release_stream(*this);
}

// ======================================================== SubtransportLayer

SubtransportLayer::SubtransportLayer(sim::Simulator& sim, HostId host,
                                     sim::CpuScheduler& cpu, rms::PortRegistry& ports,
                                     StConfig config)
    : sim_(sim), host_(host), cpu_(cpu), ports_(ports), config_(config) {
  ports_.bind(kControlPort, &control_port_);
  ports_.bind(kDataPort, &data_port_);
  control_port_.set_handler([this](rms::Message m) { on_control_message(std::move(m)); });
  data_port_.set_handler([this](rms::Message m) { on_data_message(std::move(m)); });
}

SubtransportLayer::~SubtransportLayer() {
  ports_.unbind(kControlPort);
  ports_.unbind(kDataPort);
  for (auto& [id, rms] : streams_) {
    (void)id;
    rms->st_ = nullptr;
  }
  // Cancel every outstanding timer: their closures capture `this` and must
  // not survive the layer.
  for (auto& [id, ch] : channels_) {
    (void)id;
    cancel_channel_timers(*ch);
  }
  for (auto& [host, ps] : peers_) {
    (void)host;
    cancel_peer_timers(ps);
  }
}

void SubtransportLayer::add_network(netrms::NetRmsFabric& fabric) {
  if (fabric_named(fabric.traits().name) != nullptr) {
    throw std::invalid_argument("host " + std::to_string(host_) +
                                " already joined a network named '" +
                                fabric.traits().name + "'");
  }
  fabrics_.push_back(&fabric);
}

void SubtransportLayer::set_metrics(telemetry::MetricsRegistry* m) {
  if (m == nullptr) {
    delivery_delay_hist_ = nullptr;
    fast_ack_rtt_hist_ = nullptr;
    return;
  }
  const std::string prefix = "st." + std::to_string(host_) + ".";
  delivery_delay_hist_ = &m->histogram(prefix + "delivery_ns");
  fast_ack_rtt_hist_ = &m->histogram(prefix + "fast_ack_rtt_ns");
}

netrms::NetRmsFabric* SubtransportLayer::home_fabric(HostId peer) const {
  netrms::NetRmsFabric* first = nullptr;
  for (netrms::NetRmsFabric* f : fabrics_) {
    if (!f->network().attached(peer) || f->network().down()) continue;
    if (f->traits().trusted) return f;
    if (first == nullptr) first = f;
  }
  return first;
}

std::size_t SubtransportLayer::active_channels() const {
  std::size_t n = 0;
  for (const auto& [id, ch] : channels_) {
    (void)id;
    if (!ch->cached) ++n;
  }
  return n;
}

std::size_t SubtransportLayer::cached_channels() const {
  return channels_.size() - active_channels();
}

std::size_t SubtransportLayer::held_fast_acks() const {
  std::size_t n = 0;
  for (const auto& [host, ps] : peers_) {
    (void)host;
    for (const auto& [fabric, batch] : ps.ack_batches) {
      (void)fabric;
      n += batch.held.acks.size();
    }
  }
  return n;
}

// ------------------------------------------------------------- negotiation

Result<SubtransportLayer::StParamsPlan> SubtransportLayer::plan_params(
    netrms::NetRmsFabric& fabric, const rms::Request& request) const {
  if (!rms::well_formed(request.acceptable)) {
    return make_error(Errc::kIncompatibleParams, "malformed acceptable parameters");
  }

  const auto& traits = fabric.traits();
  const netrms::CostModel cost;
  const Time window = config_.piggyback_window;
  const Time stage = kCpuStageAllowance;

  StParamsPlan plan;

  // Security elision (§2.5): apply software mechanisms only when the
  // network does not provide the property.
  const bool net_privacy = traits.trusted || traits.link_encryption;
  const bool net_auth = traits.trusted;
  const bool want_privacy =
      request.desired.quality.privacy || request.acceptable.quality.privacy;
  const bool want_auth =
      request.desired.quality.authenticated || request.acceptable.quality.authenticated;
  if (want_privacy && !net_privacy) plan.security |= kEncrypted;
  if (want_auth && !net_auth) plan.security |= kMac;

  const bool encrypts = (plan.security & kEncrypted) != 0;
  const bool macs = (plan.security & kMac) != 0;
  // Per-byte CPU charged at both ends of the ST stage.
  const Time cpu_b = 2 * (cost.per_byte_copy + (encrypts ? cost.per_byte_crypto : 0) +
                          (macs ? cost.per_byte_mac : 0));

  // Derive the network RMS request: the ST consumes (window + 2 stages) of
  // the fixed delay budget and cpu_b of the per-byte budget; the network
  // need not provide security (the ST will); the network should offer its
  // largest frame (the ST fragments above it).
  //
  // Delay allocation differs by bound type. A deterministic stream needs
  // the network to *reserve* for the client's bound, so the derived bound
  // is passed down. Statistical and best-effort streams instead ask for
  // the network's floor and keep the slack at the ST: the slack then
  // appears in each message's transmission deadline (§4.3.1), which is
  // what lets deadline-ordered queues favor urgent streams over lazy ones.
  const bool deterministic = request.desired.delay.type == rms::BoundType::kDeterministic;
  rms::Request net_req = request;
  for (rms::Params* p : {&net_req.desired, &net_req.acceptable}) {
    const bool is_acceptable = p == &net_req.acceptable;
    p->quality.privacy = is_acceptable ? false : (p->quality.privacy && net_privacy);
    p->quality.authenticated =
        is_acceptable ? false : (p->quality.authenticated && net_auth);
    if (is_acceptable) {
      p->delay.a = p->delay.a == kTimeNever
                       ? kTimeNever
                       : std::max<Time>(p->delay.a - window - 2 * stage, 1);
      p->delay.b_per_byte = std::max<Time>(p->delay.b_per_byte - cpu_b, 0);
    } else if (deterministic) {
      p->delay.a = p->delay.a == kTimeNever
                       ? kTimeNever
                       : std::max<Time>(p->delay.a - window - 2 * stage, 0);
      p->delay.b_per_byte = std::max<Time>(p->delay.b_per_byte - cpu_b, 0);
    } else {
      p->delay.a = 0;          // negotiate clamps to the network floor
      p->delay.b_per_byte = 0;
    }
    p->max_message_size = is_acceptable ? 1 : 0;  // "whatever you can give"
    p->capacity = std::max<std::uint64_t>(p->capacity, 1);
    if (!is_acceptable && !deterministic) {
      // Provision headroom so later ST RMS can multiplex onto this network
      // RMS (§4.2: its capacity must cover the sum of the ST capacities).
      // Deterministic capacity is reserved end to end, so it is requested
      // exactly — over-asking would waste admission budget.
      p->capacity *= std::max<std::uint64_t>(config_.mux_provision_factor, 1);
    }
  }
  if (request.acceptable.delay.a != kTimeNever &&
      request.acceptable.delay.a <= window + 2 * stage) {
    return make_error(Errc::kIncompatibleParams,
                      "acceptable delay bound smaller than ST processing budget");
  }

  auto negotiated = fabric.negotiate(net_req);
  if (!negotiated) return negotiated.error();
  const rms::Params net = std::move(negotiated).value();

  // Assemble the actual ST parameters on top of the network RMS.
  rms::Params actual;
  actual.quality.privacy = want_privacy;
  actual.quality.authenticated = want_auth;
  actual.quality.reliable = request.desired.quality.reliable && net.quality.reliable;
  if (request.acceptable.quality.reliable && !net.quality.reliable) {
    return make_error(Errc::kIncompatibleParams,
                      "reliable ST RMS needs a reliable network RMS; use a "
                      "transport protocol for reliability on this network");
  }

  actual.max_message_size = request.desired.max_message_size != 0
                                ? std::min<std::uint64_t>(request.desired.max_message_size,
                                                          kMaxMessageSize)
                                : kMaxMessageSize;
  // An ST RMS's capacity is backed by (a share of) the network RMS's
  // capacity: promising more would void the no-overrun property that
  // capacity exists to provide (§4.4).
  actual.capacity = request.desired.capacity != 0 ? request.desired.capacity
                                                  : actual.max_message_size;
  actual.capacity = std::min(actual.capacity, net.capacity);
  if (actual.capacity < request.acceptable.capacity) {
    return make_error(Errc::kIncompatibleParams,
                      "network capacity cannot back the acceptable ST capacity");
  }
  actual.max_message_size = std::min(actual.max_message_size, actual.capacity);

  actual.delay.type = net.delay.type;
  // Keep the client's requested bound when it is looser than what the
  // stack needs: the difference is per-message scheduling slack.
  const Time floor_a = net.delay.a == kTimeNever ? kTimeNever
                                                 : net.delay.a + window + 2 * stage;
  actual.delay.a = request.desired.delay.a == kTimeNever
                       ? floor_a
                       : std::max(request.desired.delay.a, floor_a);
  actual.delay.b_per_byte =
      std::max(request.desired.delay.b_per_byte, net.delay.b_per_byte + cpu_b);
  actual.statistical = request.desired.statistical;

  // Fragmented messages are lost if any fragment is lost (§4.3: no
  // fragment retransmission), so the ST error rate compounds.
  const std::size_t frag_payload =
      net.max_message_size > kEnvelopeBytes + component_bytes(0, plan.security | kFragment)
          ? net.max_message_size - kEnvelopeBytes -
                component_bytes(0, plan.security | kFragment)
          : 1;
  const double fragments =
      std::ceil(static_cast<double>(actual.max_message_size) /
                static_cast<double>(frag_payload));
  actual.bit_error_rate =
      1.0 - std::pow(1.0 - std::min(net.bit_error_rate, 1.0), std::max(1.0, fragments));

  if (!rms::compatible(actual, request.acceptable)) {
    return make_error(Errc::kIncompatibleParams,
                      "achievable ST parameters (" + rms::to_string(actual) +
                          ") incompatible with acceptable set");
  }

  plan.actual = actual;
  plan.net_request = net_req;
  return plan;
}

// ------------------------------------------------------------------ create

Result<std::unique_ptr<rms::Rms>> SubtransportLayer::create(const rms::Request& request,
                                                            const Label& target) {
  // §3.1 allows multiple network types; rank the viable ones by how much
  // software machinery each needs (§2.5: "the optimal mechanism is used" —
  // a network providing privacy/authentication natively beats one where
  // the ST must encrypt and MAC), breaking ties by registration order.
  // Candidates are then tried in rank order: a network whose admission
  // control rejects the stream falls through to the next one instead of
  // failing the creation.
  struct Candidate {
    netrms::NetRmsFabric* fabric;
    StParamsPlan plan;
    int mechanisms;
  };
  std::vector<Candidate> candidates;
  Error last_error = make_error(
      Errc::kNoRoute, "no attached network reaches host " + std::to_string(target.host));
  for (netrms::NetRmsFabric* candidate : fabrics_) {
    if (!candidate->network().attached(target.host)) continue;
    if (candidate->network().down()) continue;
    auto attempt = plan_params(*candidate, request);
    if (!attempt) {
      last_error = attempt.error();
      continue;
    }
    StParamsPlan plan = std::move(attempt).value();
    const int mechanisms = static_cast<int>((plan.security & kEncrypted) != 0) +
                           static_cast<int>((plan.security & kMac) != 0);
    candidates.push_back(Candidate{candidate, std::move(plan), mechanisms});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.mechanisms < b.mechanisms;
                   });

  for (Candidate& c : candidates) {
    auto channel = obtain_channel(target.host, *c.fabric, c.plan);
    if (!channel) {
      last_error = channel.error();
      continue;
    }
    const std::uint64_t id = next_st_id_++;
    auto handle = std::unique_ptr<StRms>(new StRms(*this, id, target.host,
                                                   c.plan.actual, target,
                                                   c.plan.security, request));
    handle->channel_id_ = channel.value()->id;
    streams_[id] = handle.get();
    ++stats_.st_rms_created;
    trace("st.create", [&] {
      return "stream " + std::to_string(id) + " -> " + rms::to_string(target) + " [" +
             rms::to_string(handle->params()) + "] via " + c.fabric->traits().name;
    });

    establish(*handle);
    if (observer_ != nullptr) observer_->on_stream_created(*handle);
    return std::unique_ptr<rms::Rms>(std::move(handle));
  }
  ++stats_.st_rms_rejected;
  return last_error;
}

Result<SubtransportLayer::Channel*> SubtransportLayer::obtain_channel(
    HostId peer, netrms::NetRmsFabric& fabric, const StParamsPlan& plan) {
  // §4.2 multiplexing rules: join an active channel whose actual network
  // parameters are compatible with what we would otherwise request, and
  // whose capacity can absorb this ST RMS; failing that, reclaim an idle
  // cached one (§4.2 caching) instead of creating one.
  Channel* idle = nullptr;
  for (auto& [id, ch] : channels_) {
    (void)id;
    if (ch->peer != peer || ch->fabric != &fabric) continue;
    if (ch->net_rms == nullptr || ch->net_rms->failed()) continue;  // dead channel
    if (!rms::compatible(ch->net_params, plan.net_request.acceptable)) continue;
    const std::uint64_t used = ch->cached ? 0 : ch->capacity_used;
    if (used + plan.actual.capacity > ch->net_params.capacity) continue;
    if (ch->cached) {
      if (idle == nullptr) idle = ch.get();
      continue;
    }
    ++ch->ref_count;
    ch->capacity_used += plan.actual.capacity;
    ++stats_.mux_joins;
    trace("st.channel", [&] {
      return "mux join onto channel " + std::to_string(ch->id);
    });
    return ch.get();
  }
  if (idle != nullptr) {
    idle->cached = false;
    sim_.cancel(idle->cache_timer);  // the expiry timer leaves the pending set
    idle->ref_count = 1;
    idle->capacity_used = plan.actual.capacity;
    ++stats_.cache_hits;
    trace("st.channel", [&] {
      return "cache hit: reusing channel " + std::to_string(idle->id);
    });
    return idle;
  }

  auto created = fabric.create(host_, plan.net_request, Label{peer, kDataPort});
  if (!created) return created.error();

  auto ch = std::make_unique<Channel>();
  ch->id = next_channel_id_++;
  ch->peer = peer;
  ch->net_params = created.value()->params();
  ch->net_rms = std::move(created).value();
  ch->headroom = ch->net_rms->send_headroom();
  ch->fabric = &fabric;
  ch->ref_count = 1;
  ch->capacity_used = plan.actual.capacity;
  const std::uint64_t cid = ch->id;
  ch->net_rms->on_failure([this, cid](const Error& e) { fail_channel_streams(cid, e); });
  Channel* raw = ch.get();
  channels_[cid] = std::move(ch);
  ++stats_.net_rms_created;
  trace("st.channel", [&] {
    return "created network RMS channel " + std::to_string(cid) + " to host " +
           std::to_string(peer);
  });
  return raw;
}

// ---------------------------------------------------------- control channel

SubtransportLayer::PeerState& SubtransportLayer::peer_state(HostId peer) {
  auto it = peers_.find(peer);
  if (it != peers_.end()) return it->second;
  PeerState ps;
  ps.peer = peer;
  return peers_.emplace(peer, std::move(ps)).first->second;
}

bool SubtransportLayer::send_on(PeerState& ps, netrms::NetRmsFabric* fabric,
                                Bytes payload) {
  if (fabric == nullptr) fabric = home_fabric(ps.peer);
  if (fabric == nullptr) return false;  // no live network reaches the peer
  std::unique_ptr<rms::Rms>& out = ps.control[fabric];
  if (out != nullptr && out->failed()) {
    // The network RMS under the channel died (network failure or
    // partition). Drop it and re-create below: control traffic must not
    // keep feeding a dead stream, or the peer stays unreachable forever.
    out.reset();
    ++stats_.control_channels_reset;
    trace("st.control", [&] {
      return "control channel to host " + std::to_string(ps.peer) +
             " failed; re-establishing";
    });
  }
  if (out == nullptr) {
    // An unreachable network drops the message; the request's retry, or
    // the stream's move to another network, recovers.
    auto created =
        fabric->create(host_, control_channel_request(), Label{ps.peer, kControlPort});
    if (!created) return false;
    out = std::move(created).value();
  }
  rms::Message m;
  m.data = std::move(payload);
  m.target = Label{ps.peer, kControlPort};
  m.source = Label{host_, kControlPort};
  ++stats_.control_messages;
  (void)out->send(std::move(m));
  return true;
}

bool SubtransportLayer::probe(HostId peer, netrms::NetRmsFabric& fabric,
                              std::uint64_t seq) {
  return send_on(peer_state(peer), &fabric, encode(Ping{seq, fabric.traits().name}));
}

netrms::NetRmsFabric* SubtransportLayer::fabric_named(const std::string& name) const {
  if (name.empty()) return nullptr;
  for (netrms::NetRmsFabric* f : fabrics_) {
    if (f->traits().name == name) return f;
  }
  return nullptr;
}

// ---------------------------------------------------------------- fast acks

void SubtransportLayer::queue_fast_ack(HostId peer, netrms::NetRmsFabric* fabric,
                                       std::uint64_t st_id, std::uint64_t ack_id) {
  PeerState& ps = peer_state(peer);
  PeerState::AckBatch& batch = ps.ack_batches[fabric];
  batch.held.acks.emplace_back(st_id, ack_id);
  if (batch.held.acks.size() == kFastAckMaxPairs) {
    flush_fast_acks(ps, fabric, batch);
    return;
  }
  if (batch.held.acks.size() > 1) return;  // the first ack's hold is already armed
  batch.hold_timer = sim_.timer_after(kFastAckHold, [this, peer, fabric] {
    auto pit = peers_.find(peer);
    if (pit == peers_.end()) return;
    auto bit = pit->second.ack_batches.find(fabric);
    if (bit != pit->second.ack_batches.end()) {
      flush_fast_acks(pit->second, fabric, bit->second);
    }
  });
}

void SubtransportLayer::flush_fast_acks(PeerState& ps, netrms::NetRmsFabric* fabric,
                                        PeerState::AckBatch& batch) {
  sim_.cancel(batch.hold_timer);
  if (batch.held.acks.empty()) return;
  for (const auto& [st_id, ack_id] : batch.held.acks) {
    trace("st.fastack", [&] {
      return "ack " + std::to_string(ack_id) + " for stream " + std::to_string(st_id) +
             " -> host " + std::to_string(ps.peer);
    });
  }
  const std::size_t pairs = batch.held.acks.size();
  Bytes ack = encode(batch.held);
  batch.held.acks.clear();
  // A batch bound for a network that went down dies here, uncounted.
  if (send_on(ps, fabric, std::move(ack))) stats_.fast_acks_sent += pairs;
}

void SubtransportLayer::handle_fast_ack(HostId src, std::uint64_t st_id,
                                        std::uint64_t ack_id) {
  auto it = streams_.find(st_id);
  // Only the stream's own peer may acknowledge it.
  if (it == streams_.end() || it->second->peer_ != src) return;
  StRms& stream = *it->second;
  if (auto sent = stream.ack_sent_at_.find(ack_id); sent != stream.ack_sent_at_.end()) {
    if (fast_ack_rtt_hist_ != nullptr) {
      fast_ack_rtt_hist_->observe(static_cast<std::uint64_t>(sim_.now() - sent->second));
    }
    stream.ack_sent_at_.erase(sent);
  }
  trim_handoff(stream, ack_id);
  if ((ack_id & kHandoffAckBit) != 0) {
    // Internal handoff-trim ack: never surfaces to the client.
    ++stats_.handoff_acks;
    return;
  }
  if (stream.ack_cb_) {
    ++stats_.fast_acks_delivered;
    stream.ack_cb_(ack_id);
  }
}

void SubtransportLayer::establish(StRms& rms) {
  PeerState& ps = peer_state(rms.peer_);
  ps.waiting.push_back(rms.id_);
  if (ps.authenticated) {
    send_creates(ps);
    return;
  }
  if (ps.waiting.size() > 1) return;  // the first waiting stream started the handshake

  const netrms::NetRmsFabric* home = home_fabric(ps.peer);
  if (home != nullptr && home->traits().trusted) {
    // Trusted home network: the handshake is elided (§2.5 case 3). The
    // decision holds for these creates only, as the peer judges each
    // create by its own home network: once no trusted network is up, the
    // next create runs the handshake.
    ++stats_.auth_elided;
    trace("st.auth", [&] {
      return "elided: network is trusted (peer " + std::to_string(ps.peer) + ")";
    });
    send_creates(ps);
    return;
  }

  ++stats_.auth_handshakes;
  trace("st.auth", [&] { return "challenge -> host " + std::to_string(ps.peer); });
  const std::uint64_t req_id = ps.next_request++;
  // Deterministic per-pair nonce; uniqueness per request id is what matters.
  ps.auth_nonce = (host_ << 32) ^ (ps.peer << 16) ^ req_id ^ 0xA5A5A5A5ull;
  const Key key = derive_pair_key(host_, ps.peer);
  // Send with retransmission: the control channel may drop messages.
  ps.pending[req_id] = PendingRequest{
      0, encode(AuthChallenge{req_id, ps.auth_nonce, xtea_mac(key, ps.auth_nonce, BytesView{})}),
      kControlRetries, {}};
  transmit_request(ps.peer, req_id);
}

void SubtransportLayer::send_creates(PeerState& ps) {
  const std::vector<std::uint64_t> waiting = std::move(ps.waiting);
  ps.waiting.clear();
  for (std::uint64_t id : waiting) {
    auto sit = streams_.find(id);
    if (sit == streams_.end()) continue;
    const std::uint64_t req_id = ps.next_request++;
    // Name the stream's network, so the receiver returns the reply and the
    // stream's fast acks over it (shared fate with the data path).
    netrms::NetRmsFabric* data_fabric = stream_fabric(id);
    ps.pending[req_id] = PendingRequest{
        id,
        encode(CreateRequest{req_id, id, sit->second->target_.port, sit->second->security_,
                             data_fabric != nullptr ? data_fabric->traits().name : ""}),
        kControlRetries, {}};
    transmit_request(ps.peer, req_id);
  }
}

void SubtransportLayer::transmit_request(HostId peer, std::uint64_t req_id) {
  auto pit = peers_.find(peer);
  if (pit == peers_.end()) return;
  PeerState& ps = pit->second;
  auto it = ps.pending.find(req_id);
  if (it == ps.pending.end()) return;  // already answered
  PendingRequest& pending = it->second;
  if (pending.attempts_left == 0) {
    complete_request(ps, req_id, pending.stream_id, false);  // gave up
    return;
  }
  if (pending.attempts_left < kControlRetries) ++stats_.control_retries;
  --pending.attempts_left;
  // Arm before sending, so same-time events keep their order.
  pending.retry_timer = sim_.timer_after(
      kControlRetryTimeout, [this, peer, req_id] { transmit_request(peer, req_id); });
  send_on(ps, pending.stream_id == 0 ? nullptr : stream_fabric(pending.stream_id),
          pending.request);
}

void SubtransportLayer::complete_request(PeerState& ps, std::uint64_t req_id,
                                         std::uint64_t stream_id, bool ok) {
  auto it = ps.pending.find(req_id);
  if (it == ps.pending.end() || it->second.stream_id != stream_id) return;
  sim_.cancel(it->second.retry_timer);
  ps.pending.erase(it);

  if (stream_id == 0) {
    ps.authenticated = ok;
    // Establish the parked streams either way: on failure each proceeds
    // unauthenticated, is rejected (or times out) by the peer, and fails
    // its stream — rather than hanging forever.
    send_creates(ps);
    return;
  }
  auto sit = streams_.find(stream_id);
  if (sit == streams_.end()) return;
  StRms& s = *sit->second;
  if (!ok) {
    s.fail(make_error(Errc::kRmsFailed, "peer rejected ST RMS establishment"));
    return;
  }
  s.established_ = true;
  trace("st.establish", [&] {
    return "stream " + std::to_string(s.id_) + " confirmed by peer";
  });
  if (s.rebinding_) {
    s.rebinding_ = false;
    // Replay unacknowledged messages under their original sequence
    // numbers before anything newer: the receiver's preserved
    // next_expected_seq drops whatever it already delivered.
    replay_handoff(s);
    if (observer_ != nullptr) observer_->on_stream_rebound(s);
  }
  auto pending = std::move(s.pending_);
  s.pending_.clear();
  for (auto& p : pending) emit(s, std::move(p.msg), p.ack_id, p.acked, p.client_deadline);
}

// ---------------------------------------------------------------- failover

StRms* SubtransportLayer::find_stream(std::uint64_t stream_id) {
  auto it = streams_.find(stream_id);
  return it == streams_.end() ? nullptr : it->second;
}

netrms::NetRmsFabric* SubtransportLayer::stream_fabric(std::uint64_t stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return nullptr;
  auto cit = channels_.find(it->second->channel_id_);
  return cit == channels_.end() ? nullptr : cit->second->fabric;
}

Status SubtransportLayer::rebind_stream(std::uint64_t stream_id,
                                        netrms::NetRmsFabric& fabric) {
  auto sit = streams_.find(stream_id);
  if (sit == streams_.end()) {
    return make_error(Errc::kClosed, "rebind of unknown stream");
  }
  StRms& rms = *sit->second;

  // §2.4 re-run against the *original* request: the client's acceptable
  // set, not the old actual parameters, bounds what the new network must
  // provide.
  auto plan = plan_params(fabric, rms.request_);
  if (!plan) {
    ++stats_.rebind_failures;
    return plan.error();
  }
  auto channel = obtain_channel(rms.peer_, fabric, plan.value());
  if (!channel) {
    ++stats_.rebind_failures;
    return channel.error();
  }

  // Leave the old channel without a kDelete: the stream lives on, and the
  // re-establishment below refreshes the receiver's demux entry in place
  // (preserving its next_expected_seq for replay dedup).
  detach_channel(rms);

  const rms::Params old_params = rms.params();
  rms.channel_id_ = channel.value()->id;
  rms.security_ = plan.value().security;
  rms.reset_params(plan.value().actual);
  const bool downgraded = !rms::compatible(rms.params(), old_params);
  if (downgraded) {
    ++stats_.rebind_downgrades;
    if (rms.downgrade_cb_) rms.downgrade_cb_(old_params, rms.params());
  }
  rms.established_ = false;
  rms.rebinding_ = true;

  ++stats_.streams_rebound;
  trace("st.rebind", [&] {
    return "stream " + std::to_string(stream_id) + " -> " + fabric.traits().name +
           (downgraded ? " (downgraded)" : "");
  });
  // A create still in flight names the network the stream left, where the
  // peer would return its reply: drop it, so only a create naming `fabric`
  // settles the stream. A stream parked behind the handshake keeps its
  // place: its create, sent when the handshake ends, names `fabric`.
  PeerState& ps = peer_state(rms.peer_);
  for (auto it = ps.pending.begin(); it != ps.pending.end();) {
    if (it->second.stream_id != stream_id) {
      ++it;
      continue;
    }
    sim_.cancel(it->second.retry_timer);
    it = ps.pending.erase(it);
  }
  if (std::find(ps.waiting.begin(), ps.waiting.end(), stream_id) == ps.waiting.end()) {
    establish(rms);
  }
  return Status::ok_status();
}

// --------------------------------------------------------------- send path

Status SubtransportLayer::submit(StRms& rms, rms::Message msg, std::uint64_t ack_id,
                                 bool acked, Time client_deadline) {
  ++stats_.messages_sent;
  if (msg.sent_at < 0) msg.sent_at = sim_.now();
  msg.source = Label{host_, rms.id_};
  msg.target = rms.target_;
  if (acked && fast_ack_rtt_hist_ != nullptr) track_ack(rms, ack_id);
  if (!rms.established_) {
    rms.pending_.push_back(
        StRms::PendingSend{std::move(msg), ack_id, acked, client_deadline});
    return Status::ok_status();
  }
  emit(rms, std::move(msg), ack_id, acked, client_deadline);
  return Status::ok_status();
}

void SubtransportLayer::track_ack(StRms& rms, std::uint64_t ack_id) {
  rms.ack_sent_at_.emplace(ack_id, sim_.now());
  rms.ack_order_.push_back(ack_id);
  // Every map key is also in ack_order_, so bounding the deque bounds
  // both containers even when the peer never acknowledges.
  while (rms.ack_order_.size() > StRms::kMaxTrackedAcks) {
    rms.ack_sent_at_.erase(rms.ack_order_.front());
    rms.ack_order_.pop_front();
  }
}

void SubtransportLayer::emit(StRms& rms, rms::Message msg, std::uint64_t ack_id,
                             bool acked, Time client_deadline) {
  const std::uint64_t seq = rms.next_seq_++;
  if (observer_ != nullptr && rms.params().quality.reliable) {
    // Failover handoff: retain the message until its fast ack arrives. A
    // message the client did not ask to acknowledge gets an internal ack
    // id (kHandoffAckBit | seq) so the buffer still drains in steady state.
    if (!acked) {
      ack_id = kHandoffAckBit | seq;
      acked = true;
    }
    StRms::HandoffEntry entry{seq, ack_id, msg};  // copy shares the refcounted buffer
    rms.handoff_bytes_ += entry.msg.size();
    rms.handoff_.push_back(std::move(entry));
    while (rms.handoff_.size() > kHandoffMaxMessages ||
           rms.handoff_bytes_ > kHandoffMaxBytes) {
      rms.handoff_bytes_ -= rms.handoff_.front().msg.size();
      rms.handoff_.pop_front();
      ++stats_.handoff_dropped;
    }
  }
  emit_component(rms, std::move(msg), ack_id, acked, seq, client_deadline);
}

void SubtransportLayer::trim_handoff(StRms& rms, std::uint64_t ack_id) {
  // Find the acknowledged entry; in-sequence delivery means everything at
  // or below its sequence number arrived too, so the trim is cumulative.
  std::uint64_t upto_seq = 0;
  bool found = false;
  for (const StRms::HandoffEntry& e : rms.handoff_) {
    if (e.ack_id == ack_id) {
      upto_seq = e.seq;
      found = true;
      break;
    }
  }
  if (!found) return;
  while (!rms.handoff_.empty() && rms.handoff_.front().seq <= upto_seq) {
    rms.handoff_bytes_ -= rms.handoff_.front().msg.size();
    rms.handoff_.pop_front();
  }
}

void SubtransportLayer::replay_handoff(StRms& rms) {
  // Drop send-time tracking from the old path: acks for replayed messages
  // would otherwise attribute the failover gap to the new path's RTT.
  rms.ack_sent_at_.clear();
  rms.ack_order_.clear();
  if (rms.handoff_.empty()) return;
  trace("st.replay", [&] {
    return "stream " + std::to_string(rms.id_) + ": " +
           std::to_string(rms.handoff_.size()) + " unacknowledged message(s)";
  });
  // Entries stay buffered until their re-requested fast acks arrive, so a
  // second failover mid-replay replays again from the same buffer.
  for (const StRms::HandoffEntry& e : rms.handoff_) {
    ++stats_.handoff_replayed;
    emit_component(rms, e.msg, e.ack_id, true, e.seq, kTimeNever);
  }
}

void SubtransportLayer::emit_component(StRms& rms, rms::Message msg,
                                       std::uint64_t ack_id, bool acked,
                                       std::uint64_t seq, Time client_deadline) {
  auto cit = channels_.find(rms.channel_id_);
  if (cit == channels_.end()) return;  // channel failed and was torn down
  Channel& ch = *cit->second;

  const bool encrypts = rms.encrypts();
  const bool macs = rms.macs();
  const netrms::CostModel cost;
  const Time cpu_cost = cost.message_cost(msg.size(), false, encrypts, macs);

  // §4.3.1: the preferable (maximum) transmission deadline is
  //   now + (ST RMS delay bound) - (network RMS delay bound),
  // and the *minimum* transmission deadline is the deadline of the
  // previous message on the same ST RMS — that clamp keeps deadlines
  // monotone per stream, so neither the EDF CPU stage nor the deadline
  // interface queues can reorder a stream's messages.
  const Time st_bound = rms.params().delay.bound_for(msg.size());
  const Time net_bound = ch.net_params.delay.bound_for(msg.size());
  Time eff = kTimeNever;
  if (st_bound != kTimeNever && net_bound != kTimeNever) {
    eff = std::max(sim_.now() + st_bound - net_bound, rms.last_passed_deadline_);
    rms.last_passed_deadline_ = eff;
  }

  const std::uint64_t stream_id = rms.id_;
  const std::uint64_t channel_id = rms.channel_id_;

  // For hosts running a static-priority short-term scheduler (the paper's
  // baseline), the coarse class of the delay bound.
  const int cpu_priority = rms::priority_class(rms.params().delay.a);

  cpu_.submit(eff, cpu_cost, [this, stream_id, channel_id, seq, eff, client_deadline,
                              ack_id, acked, msg = std::move(msg)]() mutable {
    auto sit = streams_.find(stream_id);
    auto chit = channels_.find(channel_id);
    if (chit == channels_.end()) return;
    Channel& channel = *chit->second;
    const std::uint8_t base_security =
        sit != streams_.end() ? sit->second->security_ : 0;
    const Key key = derive_pair_key(host_, channel.peer);

    const std::size_t nonfrag_limit =
        channel.net_params.max_message_size -
        std::min<std::size_t>(channel.net_params.max_message_size,
                              kEnvelopeBytes +
                                  component_bytes(0, base_security |
                                                         (acked ? kAckRequest : 0)));

    Component c;
    c.stream_id = stream_id;
    c.seq = seq;
    c.sent_at = msg.sent_at;
    c.ack_id = ack_id;

    if (msg.size() > nonfrag_limit) {
      // Fragmentation (§4.3): not piggybacked, never retransmitted. The
      // whole burst is serialized into one arena; each fragment packet is
      // a slice of it, with headroom for the network RMS header.
      const std::uint8_t flags = static_cast<std::uint8_t>(
          base_security | kFragment | (acked ? kAckRequest : 0));
      const std::size_t frag_payload =
          channel.net_params.max_message_size - kEnvelopeBytes -
          component_bytes(0, flags);
      const auto count = static_cast<std::uint16_t>(
          (msg.size() + frag_payload - 1) / frag_payload);
      trace("st.frag", [&] {
        return "stream " + std::to_string(stream_id) + " seq " + std::to_string(seq) +
               ": " + std::to_string(msg.size()) + " B -> " + std::to_string(count) +
               " fragments";
      });
      // Anything of this stream already queued must leave first.
      flush_channel(channel);

      const BytesView whole = msg.data.view();
      const std::size_t region_cap =
          channel.headroom + kEnvelopeBytes + component_bytes(frag_payload, flags);
      Bytes storage;
      Writer arena(storage, static_cast<std::size_t>(count) * region_cap);
      std::vector<std::pair<std::size_t, std::size_t>> regions;
      regions.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        const std::size_t offset = static_cast<std::size_t>(i) * frag_payload;
        const std::size_t len = std::min(frag_payload, msg.size() - offset);
        // Only the first fragment carries the ack request.
        c.flags = i == 0 ? flags : static_cast<std::uint8_t>(flags & ~kAckRequest);
        c.frag_index = i;
        c.frag_count = count;
        c.payload = whole.subspan(offset, len);
        const std::size_t start = arena.pos();
        arena.skip(channel.headroom);
        arena.u8(kStDataTag);
        arena.u8(1);
        serialize_component(arena, c, key);
        regions.emplace_back(start, arena.pos() - start);
        ++stats_.components_sent;
        ++stats_.fragments_sent;
      }
      const Buffer burst(std::move(storage));
      const Time passed = clamp_packet_deadline(eff, {stream_id});
      for (const auto& [start, len] : regions) {
        send_packet(channel, burst, start, len, passed);
      }
      return;
    }

    c.flags = static_cast<std::uint8_t>(base_security | (acked ? kAckRequest : 0));
    c.payload = msg.data.view();
    enqueue_component(channel, c, key, eff, client_deadline);
  }, cpu_priority);
}

Time SubtransportLayer::clamp_packet_deadline(
    Time candidate, const std::vector<std::uint64_t>& stream_ids) {
  if (candidate == kTimeNever) return kTimeNever;
  Time passed = candidate;
  for (std::uint64_t id : stream_ids) {
    auto it = streams_.find(id);
    if (it != streams_.end()) {
      passed = std::max(passed, it->second->last_packet_deadline_);
    }
  }
  for (std::uint64_t id : stream_ids) {
    auto it = streams_.find(id);
    if (it != streams_.end()) it->second->last_packet_deadline_ = passed;
  }
  return passed;
}

void SubtransportLayer::serialize_component(Writer& w, const Component& c,
                                            const Key& key) {
  w.u64(c.stream_id);
  w.u64(c.seq);
  w.i64(c.sent_at);
  w.u8(c.flags);
  if (c.flags & kFragment) {
    w.u16(c.frag_index);
    w.u16(c.frag_count);
  }
  if (c.flags & kAckRequest) w.u64(c.ack_id);
  std::size_t mac_at = 0;
  if (c.flags & kMac) {
    mac_at = w.pos();
    w.u64(0);  // patched below: the MAC precedes the body on the wire
  }
  w.u32(static_cast<std::uint32_t>(c.payload.size()));
  const std::size_t body_at = w.pos();
  w.bytes(c.payload);  // the send path's single payload copy (gather-write)
  const std::uint64_t nonce = component_nonce(c.stream_id, c.seq, c.frag_index);
  if (c.flags & kEncrypted) {
    xtea_ctr_crypt(key, nonce, w.span(body_at, c.payload.size()));
    stats_.bytes_encrypted += c.payload.size();
  }
  if (c.flags & kMac) {
    const auto body = w.span(body_at, c.payload.size());
    w.patch_u64(mac_at, xtea_mac(key, nonce, BytesView(body.data(), body.size())));
    stats_.bytes_macced += c.payload.size();
  }
}

void SubtransportLayer::enqueue_component(Channel& ch, const Component& c, const Key& key,
                                          Time eff_deadline, Time client_deadline) {
  ++stats_.components_sent;
  const std::size_t space_limit =
      ch.net_params.max_message_size > kEnvelopeBytes
          ? ch.net_params.max_message_size - kEnvelopeBytes
          : 0;
  const std::size_t wire_size = component_bytes(c.payload.size(), c.flags);
  const std::size_t queued =
      ch.queue_count == 0 ? 0 : ch.queue.size() - ch.headroom - kEnvelopeBytes;
  if (queued + wire_size > space_limit) flush_channel(ch);

  // Share the queued packet only when it keeps the deadline its more urgent
  // side would have alone. The §4.3.1 clamp raises a packet to every
  // carried stream's previous packet deadline, so a stream that last left
  // lazily would hand its laziness to the packet and, through the clamps,
  // to its companions' later packets.
  auto sit = streams_.find(c.stream_id);
  const Time stream_floor =
      sit != streams_.end() ? sit->second->last_packet_deadline_ : 0;
  if (ch.queue_count > 0) {
    const Time alone = std::max(eff_deadline, stream_floor);
    const Time queued_alone = std::max(ch.queue_min_deadline, ch.queue_floor);
    const Time shared = std::max(
        {std::min(ch.queue_min_deadline, eff_deadline), ch.queue_floor, stream_floor});
    if (shared > std::min(alone, queued_alone)) flush_channel(ch);
  }

  // Piggybacking pays only when other traffic coexists within the window.
  // If the channel has been idle longer than a window, nothing will join
  // this message — send it at once rather than taxing it the full wait.
  const bool channel_idle =
      ch.queue_count == 0 && (ch.last_enqueue == kTimeNever ||
                              sim_.now() - ch.last_enqueue > config_.piggyback_window);
  ch.last_enqueue = sim_.now();

  Writer queue(ch.queue);
  if (ch.queue_count == 0) {
    // Start a fresh arena (flush moved the last one out): headroom gap,
    // then the envelope whose count field is patched at flush.
    ch.queue.reserve(ch.headroom + kEnvelopeBytes + space_limit);
    queue.skip(ch.headroom);
    queue.u8(kStDataTag);
    queue.u8(0);
  }
  serialize_component(queue, c, key);
  ++ch.queue_count;
  ch.queue_streams.push_back(c.stream_id);
  ch.queue_min_deadline = std::min(ch.queue_min_deadline, eff_deadline);
  ch.queue_floor = std::max(ch.queue_floor, stream_floor);
  // Flush by the earliest transmission deadline, the bound's or the
  // client's own (§4.3.1), but never hold a message longer than the
  // piggyback window — waiting out a loose bound would trade the whole
  // delay budget for a chance to piggyback. A client deadline only ends
  // the wait: the packet still carries the bound deadlines, so a
  // best-effort client cannot jump a deterministic stream.
  ch.queue_flush_at = std::min({ch.queue_flush_at, eff_deadline, client_deadline,
                                sim_.now() + config_.piggyback_window});

  if (channel_idle || ch.queue_flush_at <= sim_.now()) {
    flush_channel(ch);
    return;
  }
  // (Re)arm the flush timer.
  sim_.cancel(ch.flush_timer);
  const std::uint64_t id = ch.id;
  ch.flush_timer = sim_.timer_at(ch.queue_flush_at, [this, id] {
    auto it = channels_.find(id);
    if (it == channels_.end()) return;
    flush_channel(*it->second);
  });
}

void SubtransportLayer::flush_channel(Channel& ch) {
  sim_.cancel(ch.flush_timer);  // disarm: the queue goes out now
  if (ch.queue_count == 0) return;

  ch.queue[ch.headroom + 1] = static_cast<std::byte>(ch.queue_count);  // envelope count
  const Buffer arena(std::move(ch.queue));

  // The packet carries the queue's *minimum* transmission deadline — the
  // most urgent component sets the urgency — raised only as far as each
  // carried ST RMS's previous packet deadline, so it is monotone for every
  // stream it carries (§4.3.1's ordering rules). Independent streams on the
  // same network RMS keep independent urgency.
  const Time passed = clamp_packet_deadline(ch.queue_min_deadline, ch.queue_streams);
  stats_.piggybacked += ch.queue_count - 1;
  trace("st.flush", [&] {
    return "channel " + std::to_string(ch.id) + ": " + std::to_string(ch.queue_count) +
           " component(s), " + std::to_string(arena.size() - ch.headroom) +
           " B, deadline " + format_time(passed);
  });

  ch.queue_count = 0;
  ch.queue_streams.clear();
  ch.queue_min_deadline = kTimeNever;
  ch.queue_floor = 0;
  ch.queue_flush_at = kTimeNever;
  send_packet(ch, arena, 0, arena.size(), passed);
}

void SubtransportLayer::send_packet(Channel& ch, const Buffer& arena, std::size_t start,
                                    std::size_t len, Time deadline) {
  rms::Message m;
  m.data = arena.slice(start + ch.headroom, len - ch.headroom, ch.headroom);
  m.target = Label{ch.peer, kDataPort};
  ++stats_.network_messages;
  (void)ch.net_rms->send(std::move(m), deadline);
}

// ------------------------------------------------------------- receive path

void SubtransportLayer::on_control_message(rms::Message msg) {
  const netrms::CostModel cost;
  cpu_.submit(sim_.now() + kCpuStageAllowance,
              cost.message_cost(msg.size(), false, false, false),
              [this, msg = std::move(msg)]() mutable { handle_control(std::move(msg)); });
}

void SubtransportLayer::handle_control(rms::Message msg) {
  const HostId src = msg.source.host;
  const std::optional<ControlMsg> decoded = decode(msg.data);
  if (!decoded) return;
  PeerState& ps = peer_state(src);
  const Key key = derive_pair_key(host_, src);

  if (const auto* m = std::get_if<AuthChallenge>(&*decoded)) {
    if (xtea_mac(key, m->nonce, BytesView{}) != m->mac) return;  // impostor challenge
    ps.peer_verified = true;
    send_on(ps, nullptr,
            encode(AuthResponse{m->request_id, m->nonce,
                                xtea_mac(key, m->nonce + 1, BytesView{})}));
  } else if (const auto* m = std::get_if<AuthResponse>(&*decoded)) {
    if (m->nonce != ps.auth_nonce || xtea_mac(key, m->nonce + 1, BytesView{}) != m->mac) {
      ++stats_.auth_drops;
      return;
    }
    ps.peer_verified = true;
    complete_request(ps, m->request_id, 0, true);
  } else if (const auto* m = std::get_if<CreateRequest>(&*decoded)) {
    const netrms::NetRmsFabric* home = home_fabric(src);
    const bool ok = ps.peer_verified || (home != nullptr && home->traits().trusted);
    netrms::NetRmsFabric* stream_net = fabric_named(m->fabric);
    if (ok) {
      // Re-establishment after a path failover arrives as a second
      // kCreateRequest for the same (src, st_id). Preserve the entry's
      // next_expected_seq so replayed messages this side already
      // delivered are dropped as stale — the no-duplication half of the
      // failover guarantee. A reassembly from the old network can never
      // complete, so discard it.
      auto [eit, inserted] = demux_.try_emplace({src, m->st_id});
      DemuxEntry& entry = eit->second;
      if (!inserted) discard_partial(entry);
      entry.src = src;
      entry.st_id = m->st_id;
      entry.target = Label{host_, m->port};
      entry.security = m->security;
      entry.ack_fabric = stream_net;
    }
    send_on(ps, stream_net, encode(CreateReply{m->request_id, m->st_id, ok}));
  } else if (const auto* m = std::get_if<CreateReply>(&*decoded)) {
    // Stream id 0 names no stream: it must not settle the handshake.
    if (m->st_id != 0) complete_request(ps, m->request_id, m->st_id, m->ok);
  } else if (const auto* m = std::get_if<Delete>(&*decoded)) {
    auto it = demux_.find({src, m->st_id});
    if (it != demux_.end()) {
      discard_partial(it->second);
      demux_.erase(it);
    }
  } else if (const auto* m = std::get_if<FastAck>(&*decoded)) {
    for (const auto& [st_id, ack_id] : m->acks) {
      handle_fast_ack(src, st_id, ack_id);
    }
  } else if (const auto* m = std::get_if<Ping>(&*decoded)) {
    // Answer over the network the ping names, never another: the pong
    // vouches for that network alone. Any ST answers, managed or not.
    if (netrms::NetRmsFabric* f = fabric_named(m->fabric)) {
      send_on(ps, f, encode(Pong{m->seq, m->fabric}));
    }
  } else if (const auto* m = std::get_if<Pong>(&*decoded)) {
    netrms::NetRmsFabric* f = fabric_named(m->fabric);
    if (f != nullptr && observer_ != nullptr) observer_->on_probe_reply(src, *f, m->seq);
  }
}

void SubtransportLayer::on_data_message(rms::Message msg) {
  // Pre-scan components to charge the exact receive-side CPU cost
  // (decryption and MAC verification are per-byte, §4.1). A malformed
  // message is dropped here, before it reaches the demux.
  const netrms::CostModel cost;
  Time cpu_cost = 0;
  {
    Reader r(msg.data);
    auto tag = r.u8();
    auto count = r.u8();
    if (!tag || *tag != kStDataTag || !count) return;
    for (int i = 0; i < *count; ++i) {
      auto c = read_component(r);
      if (!c) return;
      cpu_cost += cost.message_cost(c->payload.size(), false,
                                    (c->flags & kEncrypted) != 0, (c->flags & kMac) != 0);
    }
  }
  cpu_.submit(sim_.now() + kCpuStageAllowance, cpu_cost,
              [this, msg = std::move(msg)]() mutable { handle_data(std::move(msg)); });
}

void SubtransportLayer::handle_data(rms::Message msg) {
  const HostId src = msg.source.host;
  Reader r(msg.data);
  (void)r.u8();  // tag, validated in the pre-scan
  auto count = r.u8();
  if (!count) return;

  const Key key = derive_pair_key(host_, src);

  for (int i = 0; i < *count; ++i) {
    auto c = read_component(r);
    if (!c) return;
    // Zero-copy receive: the body is a slice of the packet buffer the
    // network delivered; it travels upward without being materialized.
    Buffer body = msg.data.slice(r.pos() - c->payload.size(), c->payload.size());

    auto eit = demux_.find({src, c->stream_id});
    if (eit == demux_.end()) {
      ++stats_.unknown_dropped;
      continue;
    }
    DemuxEntry& entry = eit->second;

    const std::uint64_t nonce = component_nonce(c->stream_id, c->seq, c->frag_index);
    if ((c->flags & kMac) && xtea_mac(key, nonce, body.view()) != c->mac) {
      ++stats_.auth_drops;
      continue;
    }
    if (c->flags & kEncrypted) {
      // Decryption mutates; copy-on-write gives this component its own
      // storage (the packet buffer is still shared with the reader).
      xtea_ctr_crypt(key, nonce, body.mutate());
    }

    // Fast acknowledgement (§3.2): the receiving ST acks without involving
    // the receiving client — but only for components it actually accepts.
    // A stale component (a replay of something already delivered, or a
    // reordered straggler the sequence moved past) is dropped
    // unacknowledged: acking it would tell the sender a message was
    // delivered that never reached the client. Fragmented components ack
    // only at reassembly completion (fragments are never retransmitted, so
    // until the last one lands the message can still be lost). The ack
    // returns over the stream's network (entry.ack_fabric).

    if ((c->flags & kFragment) == 0) {
      // §4.3: a newer message obsoletes the incomplete one.
      discard_partial(entry);
      if (c->seq < entry.next_expected_seq) {
        ++stats_.stale_dropped;
        continue;
      }
      if (c->flags & kAckRequest) {
        queue_fast_ack(src, entry.ack_fabric, c->stream_id, c->ack_id);
      }
      entry.next_expected_seq = c->seq + 1;
      deliver_component(entry, std::move(body), c->sent_at);
      continue;
    }

    // Fragment path.
    if (c->seq < entry.next_expected_seq) {
      ++stats_.stale_dropped;
      continue;
    }
    if (!entry.partial || entry.partial_seq != c->seq) {
      discard_partial(entry);
      entry.partial = true;
      entry.partial_seq = c->seq;
      entry.partial_count = c->frag_count;
      entry.partial_received = 0;
      entry.partial_fragments.assign(c->frag_count, Buffer{});
      entry.partial_sent_at = c->sent_at;
    }
    if (c->flags & kAckRequest) {
      // Only fragment 0 carries the ack request; record it for the
      // reassembly-complete branch below.
      entry.partial_ack_requested = true;
      entry.partial_ack_id = c->ack_id;
    }
    if (c->frag_index < entry.partial_count &&
        entry.partial_fragments[c->frag_index].empty()) {
      entry.partial_fragments[c->frag_index] = std::move(body);
      ++entry.partial_received;
    }
    if (entry.partial_received == entry.partial_count) {
      // The one copy a fragmented delivery pays: materialization at final
      // reassembly. Until here every fragment was a slice of its packet.
      Buffer whole = Buffer::concat(entry.partial_fragments);
      entry.partial = false;
      entry.partial_fragments.clear();
      entry.next_expected_seq = c->seq + 1;
      ++stats_.reassembled;
      trace("st.reassemble", [&] {
        return "stream " + std::to_string(c->stream_id) + " seq " +
               std::to_string(c->seq) + " complete (" + std::to_string(whole.size()) +
               " B)";
      });
      if (entry.partial_ack_requested) {
        entry.partial_ack_requested = false;
        queue_fast_ack(src, entry.ack_fabric, c->stream_id, entry.partial_ack_id);
      }
      deliver_component(entry, std::move(whole), entry.partial_sent_at);
    }
  }
}

void SubtransportLayer::discard_partial(DemuxEntry& entry) {
  if (!entry.partial) return;
  ++stats_.partials_discarded;
  stats_.partial_fragments_discarded += entry.partial_received;
  for (const Buffer& piece : entry.partial_fragments) {
    stats_.partial_bytes_discarded += piece.size();
  }
  trace("st.discard", [&] {
    return "stream " + std::to_string(entry.st_id) + " seq " +
           std::to_string(entry.partial_seq) + " dropped with " +
           std::to_string(entry.partial_received) + "/" +
           std::to_string(entry.partial_count) + " fragments";
  });
  entry.partial = false;
  entry.partial_fragments.clear();
  entry.partial_received = 0;
  entry.partial_ack_requested = false;
}

void SubtransportLayer::deliver_component(DemuxEntry& entry, Buffer data, Time sent_at) {
  rms::Port* port = ports_.find(entry.target.port);
  if (port == nullptr) {
    ++stats_.unknown_dropped;
    return;
  }
  rms::Message out;
  out.data = std::move(data);
  out.source = Label{entry.src, entry.st_id};
  out.target = entry.target;
  out.sent_at = sent_at;
  ++stats_.messages_delivered;
  if (delivery_delay_hist_ != nullptr && sent_at >= 0) {
    delivery_delay_hist_->observe(static_cast<std::uint64_t>(sim_.now() - sent_at));
  }
  port->deliver(std::move(out), sim_.now());
}

// ---------------------------------------------------------------- teardown

void SubtransportLayer::release_stream(StRms& rms) {
  netrms::NetRmsFabric* const fabric = stream_fabric(rms.id_);  // the kDelete's network
  if (streams_.erase(rms.id_) == 0) return;  // already released
  if (observer_ != nullptr) observer_->on_stream_released(rms);
  // In-flight ack timestamps and handoff entries die with the stream (they
  // are per-stream and capped, so a closed stream frees its tracking
  // immediately).
  rms.ack_sent_at_.clear();
  rms.ack_order_.clear();
  rms.handoff_.clear();
  rms.handoff_bytes_ = 0;

  trace("st.close", [&] { return "stream " + std::to_string(rms.id_); });
  auto pit = peers_.find(rms.peer_);
  if (pit != peers_.end()) send_on(pit->second, fabric, encode(Delete{rms.id_}));

  detach_channel(rms);
}

void SubtransportLayer::detach_channel(StRms& rms) {
  auto cit = channels_.find(rms.channel_id_);
  if (cit == channels_.end()) return;
  Channel& ch = *cit->second;
  flush_channel(ch);
  ch.capacity_used -= std::min(ch.capacity_used, rms.params().capacity);
  if (--ch.ref_count > 0) return;

  if (config_.cache_idle_timeout > 0 && ch.net_rms != nullptr && !ch.net_rms->failed()) {
    // §4.2: retain the idle network RMS; expire it after the idle timeout.
    // A failed network RMS is never worth caching — a later cache hit
    // would hand the client a dead stream.
    ch.cached = true;
    const std::uint64_t id = ch.id;
    sim_.cancel(ch.cache_timer);
    ch.cache_timer = sim_.timer_after(config_.cache_idle_timeout,
                                      [this, id] { expire_channel(id); });
  } else {
    release_channel(ch);
  }
}

void SubtransportLayer::cancel_channel_timers(Channel& ch) {
  sim_.cancel(ch.flush_timer);
  sim_.cancel(ch.cache_timer);
}

void SubtransportLayer::release_channel(Channel& ch) {
  const std::uint64_t id = ch.id;  // ch dies with the map entry
  cancel_channel_timers(ch);
  channels_.erase(id);
}

void SubtransportLayer::expire_channel(std::uint64_t channel_id) {
  auto it = channels_.find(channel_id);
  if (it == channels_.end()) return;
  if (!it->second->cached) return;
  cancel_channel_timers(*it->second);
  channels_.erase(it);
}

void SubtransportLayer::fail_channel_streams(std::uint64_t channel_id, const Error& e) {
  auto cit = channels_.find(channel_id);
  const HostId peer = cit != channels_.end() ? cit->second->peer : 0;
  netrms::NetRmsFabric* fabric =
      cit != channels_.end() ? cit->second->fabric : nullptr;
  // Collect ids and re-find each: a failure (or rebind) callback may close
  // other streams and mutate streams_ under us.
  std::vector<std::uint64_t> victims;
  for (auto& [id, rms] : streams_) {
    if (rms->channel_id_ == channel_id) victims.push_back(id);
  }
  for (std::uint64_t id : victims) {
    auto it = streams_.find(id);
    if (it == streams_.end()) continue;
    StRms* rms = it->second;
    if (observer_ != nullptr && observer_->on_channel_failed(*rms, e)) {
      continue;  // re-homed onto another network; client never sees it
    }
    rms->fail(e);
  }
  // The failure came from the network: any idle cached channel to the same
  // peer *on that network* is equally dead, so drop them instead of handing
  // them out later. Cached channels on other networks stay valid.
  if (peer != 0) drop_cached_channels(peer, fabric);
}

void SubtransportLayer::drop_cached_channels(HostId peer,
                                             const netrms::NetRmsFabric* fabric) {
  for (auto it = channels_.begin(); it != channels_.end();) {
    Channel& ch = *it->second;
    if (ch.peer == peer && ch.cached && (fabric == nullptr || ch.fabric == fabric)) {
      ++stats_.cache_invalidations;
      cancel_channel_timers(ch);
      it = channels_.erase(it);
    } else {
      ++it;
    }
  }
}

void SubtransportLayer::cancel_peer_timers(PeerState& ps) {
  for (auto& [req_id, pending] : ps.pending) {
    (void)req_id;
    sim_.cancel(pending.retry_timer);
  }
  for (auto& [fabric, batch] : ps.ack_batches) {
    (void)fabric;
    sim_.cancel(batch.hold_timer);
  }
}

void SubtransportLayer::invalidate_peer(HostId peer) {
  drop_cached_channels(peer, nullptr);
  // Forget control and authentication state: the restarted peer has lost
  // its side of the handshake, so the next conversation re-authenticates.
  // Outstanding control retransmits and held fast acks die with it.
  auto pit = peers_.find(peer);
  if (pit != peers_.end()) {
    cancel_peer_timers(pit->second);
    peers_.erase(pit);
  }
  for (auto it = demux_.begin(); it != demux_.end();) {
    if (it->first.first == peer) {
      discard_partial(it->second);
      it = demux_.erase(it);
    } else {
      ++it;
    }
  }
  trace("st.invalidate", [&] {
    return "forgot cached state for host " + std::to_string(peer);
  });
}

}  // namespace dash::st
