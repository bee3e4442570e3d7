#include "rkom/rkom.h"

#include "util/serialize.h"

namespace dash::rkom {
namespace {

constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kRequestRetry = 2;
constexpr std::uint8_t kReply = 3;
constexpr std::uint8_t kReplyAck = 4;

/// Delay bound targets (A) for the two stream classes of the channel.
constexpr Time kLowDelayA = msec(10);
constexpr Time kHighDelayA = msec(500);

/// Request/reply streams of the RKOM channel (§2.5: "initial request and
/// reply messages in a request/reply protocol should use RMS's with low
/// delay bound"; retransmissions and acks ride high-delay streams).
rms::Request rkom_stream_request(Time delay_a) {
  rms::Params desired;
  desired.capacity = 16 * 1024;
  desired.max_message_size = 4 * 1024;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = delay_a;
  desired.delay.b_per_byte = usec(5);
  desired.bit_error_rate = 1e-6;

  rms::Params acceptable = desired;
  acceptable.capacity = 4 * 1024;
  acceptable.max_message_size = 1024;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return rms::Request{desired, acceptable};
}

Bytes make_request_wire(std::uint8_t type, std::uint64_t call_id, std::uint64_t op,
                        BytesView args) {
  Bytes wire;
  Writer w(wire);
  w.u8(type);
  w.u64(call_id);
  w.u64(op);
  w.bytes(args);
  return wire;
}

}  // namespace

RkomNode::RkomNode(st::SubtransportLayer& st, rms::PortRegistry& ports,
                   RkomConfig config)
    : st_(st), ports_(ports), sim_(st.simulator()), config_(config) {
  ports_.bind(kRkomPort, &port_);
  port_.set_handler([this](rms::Message m) { handle(std::move(m)); });
}

RkomNode::~RkomNode() {
  ports_.unbind(kRkomPort);
  // Outstanding timers capture `this`; cancel them so their closures are
  // destroyed with the node.
  for (auto& [id, pc] : pending_) {
    (void)id;
    sim_.cancel(pc.retry_timer);
  }
  for (auto& [key, cr] : replies_) {
    (void)key;
    sim_.cancel(cr.expiry_timer);
  }
}

void RkomNode::register_operation(std::uint64_t op, Operation operation) {
  operations_[op] = std::move(operation);
}

RkomNode::Channel& RkomNode::channel(HostId peer) {
  auto it = channels_.find(peer);
  if (it != channels_.end()) {
    const Channel& existing = it->second;
    const bool dead = (existing.low != nullptr && existing.low->failed()) ||
                      (existing.high != nullptr && existing.high->failed());
    if (!dead && existing.usable()) return it->second;
    // A stream died (network failure, partition) or creation fell short
    // last time: rebuild the four-stream channel rather than sending into
    // a dead RMS forever.
    channels_.erase(it);
    if (dead) ++stats_.channels_reestablished;
  }
  Channel ch;
  if (auto low = st_.create(rkom_stream_request(kLowDelayA),
                            Label{peer, kRkomPort})) {
    ch.low = std::move(low).value();
  }
  if (auto high = st_.create(rkom_stream_request(kHighDelayA),
                             Label{peer, kRkomPort})) {
    ch.high = std::move(high).value();
  }
  return channels_.emplace(peer, std::move(ch)).first->second;
}

void RkomNode::set_metrics(telemetry::MetricsRegistry* m) {
  call_rtt_hist_ =
      m == nullptr
          ? nullptr
          : &m->histogram("rkom." + std::to_string(host()) + ".call_rtt_ns");
}

void RkomNode::call(HostId peer, std::uint64_t op, Bytes args,
                    std::function<void(Result<Bytes>)> cb) {
  Channel& ch = channel(peer);
  if (!ch.usable()) {
    cb(make_error(Errc::kNoRoute, "RKOM channel to host " + std::to_string(peer) +
                                      " could not be established"));
    return;
  }
  const std::uint64_t call_id = next_call_++;
  ++stats_.calls;

  PendingCall pending;
  pending.peer = peer;
  pending.request_wire = make_request_wire(kRequest, call_id, op, args);
  pending.cb = std::move(cb);
  pending.retries_left = config_.max_retries;
  pending.started = sim_.now();
  pending_[call_id] = std::move(pending);

  rms::Message m;
  m.data = pending_[call_id].request_wire;
  // Initial request: low-delay stream, with a transmission deadline of now
  // (§4.3.1), so the ST sends it without waiting for company.
  (void)ch.low->send(std::move(m), sim_.now());
  arm_retry(call_id);
}

void RkomNode::arm_retry(std::uint64_t call_id) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  it->second.retry_timer = sim_.timer_after(config_.retry_timeout, [this, call_id] {
    auto pit = pending_.find(call_id);
    if (pit == pending_.end()) return;
    PendingCall& pc = pit->second;
    if (pc.retries_left-- <= 0) {
      auto cb = std::move(pc.cb);
      pending_.erase(pit);
      ++stats_.timeouts;
      cb(make_error(Errc::kRmsFailed, "RKOM call timed out"));
      return;
    }
    // Retransmission: high-delay stream, marked as a retry so the server
    // suppresses duplicate execution. Going through channel() (not the raw
    // cache) rebuilds a channel whose streams died with their network, so
    // an in-flight rendezvous survives network death instead of silently
    // retransmitting into a failed RMS until it times out.
    Channel& ch = channel(pc.peer);
    if (ch.high != nullptr && !ch.high->failed()) {
      Buffer wire = pc.request_wire;
      wire.mutate()[0] = static_cast<std::byte>(kRequestRetry);  // copy-on-write
      rms::Message m;
      m.data = std::move(wire);
      ++stats_.request_retransmissions;
      (void)ch.high->send(std::move(m));
    }
    arm_retry(call_id);
  });
}

void RkomNode::handle(rms::Message msg) {
  Reader r(msg.data);
  auto type = r.u8();
  auto call_id = r.u64();
  if (!type || !call_id) return;
  const HostId from = msg.source.host;

  switch (*type) {
    case kRequest:
    case kRequestRetry: {
      auto op = r.u64();
      if (!op) return;
      handle_request(from, *call_id, *op, r.rest(), *type == kRequestRetry);
      break;
    }
    case kReply: {
      handle_reply(from, *call_id, r.rest());
      break;
    }
    case kReplyAck: {
      auto rit = replies_.find({from, *call_id});
      if (rit != replies_.end()) {
        sim_.cancel(rit->second.expiry_timer);
        replies_.erase(rit);
      }
      break;
    }
    default:
      break;
  }
}

void RkomNode::handle_request(HostId client, std::uint64_t call_id, std::uint64_t op,
                              Bytes args, bool is_retry) {
  const auto key = std::make_pair(client, call_id);
  auto cached = replies_.find(key);
  if (cached != replies_.end()) {
    ++stats_.duplicate_requests;
    if (cached->second.executing) return;  // still computing: stay quiet
    // At-most-once: re-send the cached reply on the high-delay stream.
    Channel& ch = channel(client);
    if (ch.high != nullptr) {
      rms::Message m;
      m.data = cached->second.wire;
      ++stats_.reply_retransmissions;
      (void)ch.high->send(std::move(m));
    }
    return;
  }

  auto oit = operations_.find(op);
  if (oit == operations_.end()) return;  // unknown operation: let client retry/timeout
  Operation& operation = oit->second;

  replies_[key].executing = true;
  ++stats_.executions;

  auto finish = [this, key, client, call_id, is_retry](Bytes result) {
    auto rit = replies_.find(key);
    if (rit == replies_.end()) return;
    rit->second.executing = false;
    rit->second.wire = [&] {
      Bytes wire;
      Writer w(wire);
      w.u8(kReply);
      w.u64(call_id);
      w.bytes(result);
      return wire;
    }();

    Channel& ch = channel(client);
    rms::Message m;
    m.data = rit->second.wire;
    // Initial reply goes low-delay and, like the request, leaves at once; a
    // reply to a retry is itself a retransmission and rides the high-delay
    // stream with no deadline of its own.
    rms::Rms* stream = is_retry ? ch.high.get() : ch.low.get();
    const Time deadline = is_retry ? kTimeNever : sim_.now();
    if (stream != nullptr) (void)stream->send(std::move(m), deadline);

    // Evict the at-most-once state if no ack ever arrives.
    sim_.cancel(rit->second.expiry_timer);
    rit->second.expiry_timer =
        sim_.timer_after(config_.reply_cache_ttl, [this, key] {
          auto it = replies_.find(key);
          if (it != replies_.end()) replies_.erase(it);
        });
  };

  if (operation.service_time > 0) {
    // Wait out the service time on a timer, then run the handler and reply.
    // No CPU is charged: the host CPU is free for other work meanwhile.
    sim_.after(operation.service_time,
               [handler = operation.handler, args = std::move(args), finish]() mutable {
                 finish(handler(args));
               });
  } else {
    finish(operation.handler(args));
  }
}

void RkomNode::handle_reply(HostId server, std::uint64_t call_id, Bytes result) {
  // Acknowledge so the server can drop its cached reply (high-delay). A
  // duplicate reply is acked again: the server re-sent it because an
  // earlier ack may have been lost, and without this one it would hold the
  // reply for the whole TTL.
  Channel& ch = channel(server);
  if (ch.high != nullptr) {
    Bytes wire;
    Writer w(wire);
    w.u8(kReplyAck);
    w.u64(call_id);
    rms::Message m;
    m.data = std::move(wire);
    ++stats_.acks_sent;
    (void)ch.high->send(std::move(m));
  }
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;  // duplicate reply, acked above
  auto cb = std::move(it->second.cb);
  sim_.cancel(it->second.retry_timer);  // the retry leaves the pending set now
  if (call_rtt_hist_ != nullptr) {
    call_rtt_hist_->observe(static_cast<std::uint64_t>(sim_.now() - it->second.started));
  }
  pending_.erase(it);
  ++stats_.replies_received;
  cb(std::move(result));
}

// ------------------------------------------------------------------- RPC

std::uint64_t RpcServer::op_id(const std::string& name) {
  // FNV-1a.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void RpcServer::handle(const std::string& name, std::function<Bytes(BytesView)> fn,
                       Time service_time) {
  node_.register_operation(op_id(name),
                           RkomNode::Operation{std::move(fn), service_time});
}

}  // namespace dash::rkom
