#include "path/stripe.h"

#include <algorithm>
#include <string>

#include "util/serialize.h"

namespace dash::path {
namespace {

/// At most this many subpaths (one per distinct fabric, in registration
/// order); fewer when fewer networks reach the peer or admit the stream.
constexpr std::size_t kMaxSubpaths = 4;

/// Retransmission timing: a send is retransmitted when unacknowledged for
/// max(kMinRto, kRtoMultiplier * subpath smoothed ack RTT), doubled per
/// retransmission but never past kMaxRto — a run of lost acks must not back
/// an attempt off beyond the lifetime of the transfer. The scan runs every
/// kTickInterval while anything is in flight.
constexpr Time kMinRto = msec(20);
constexpr Time kMaxRto = sec(1);
constexpr double kRtoMultiplier = 2.0;
constexpr Time kTickInterval = msec(10);

/// A subpath with this many consecutive scan rounds containing an expired
/// send is declared dead: its in-flight messages move to the surviving
/// subpaths and it is never dispatched to again.
constexpr int kSubpathDeathAfter = 3;

/// Smoothing for the per-subpath ack RTT estimate, and its optimistic
/// starting value before the first ack.
constexpr double kRttEwmaAlpha = 0.3;
constexpr Time kInitialRtt = msec(5);

/// Receiver-side reorder window (messages buffered past a gap). The ST fast
/// ack fires at the peer's ST, so a message dropped on overflow is gone for
/// good — size it for the worst subpath skew, not the average.
constexpr std::size_t kReorderWindow = 4096;

/// RACK early loss detection (DESIGN.md §13): when an ack confirms a send,
/// any older send on the same subpath still unacknowledged a reordering
/// window later is declared lost and retransmitted immediately instead of
/// waiting out the RTO. The window is half the subpath's smoothed ack RTT,
/// floored so in-window reordering never triggers a spurious retransmit.
constexpr cc::RackConfig kRack{0.5, msec(2), kTimeNever};

/// Paced recovery: retransmissions and dead-subpath redistribution are
/// limited per tick to kPaceGain x the stripe's measured ack rate (floored
/// at kPaceMinBytesPerTick so recovery starts before the first rate
/// sample). Re-blasting a dead subpath's whole backlog in one burst just
/// overruns the survivors' buffers; deferred sends go out on the following
/// ticks.
constexpr double kPaceGain = 1.25;
constexpr std::size_t kPaceMinBytesPerTick = 16 * 1024;

/// Substream request derived from the client's: same quality and delay
/// envelope, message size widened for the stripe header.
rms::Request substream_request(const rms::Request& request) {
  rms::Request sub = request;
  sub.desired.max_message_size += kStripeHeaderBytes;
  sub.acceptable.max_message_size += kStripeHeaderBytes;
  return sub;
}

}  // namespace

// ------------------------------------------------------------------ sender

Result<std::unique_ptr<StripedStream>> StripedStream::create(
    st::SubtransportLayer& st, PathManager* pm, const rms::Request& request,
    const rms::Label& target) {
  const rms::Request sub_request = substream_request(request);
  std::vector<Subpath> subpaths;
  Error last_error = make_error(Errc::kNoRoute, "no attached network reaches host " +
                                                    std::to_string(target.host));
  for (netrms::NetRmsFabric* fabric : st.networks()) {
    if (subpaths.size() >= kMaxSubpaths) break;
    if (!fabric->network().attached(target.host)) continue;
    auto created =
        st.create_on(*fabric, sub_request, rms::Label{target.host, kStripePort});
    if (!created) {
      last_error = created.error();
      continue;
    }
    Subpath sp;
    sp.stream = std::move(created).value();
    sp.st_rms = static_cast<st::StRms*>(sp.stream.get());
    sp.fabric = fabric;
    sp.ewma_rtt_ns = static_cast<double>(kInitialRtt);
    sp.rack = cc::RackState(kRack);
    subpaths.push_back(std::move(sp));
  }
  if (subpaths.empty()) return last_error;

  // Client-visible contract: the capacity of the stripe is the sum of its
  // subpaths'; the message ceiling and delay bound are the weakest link's
  // (any message may ride any subpath).
  rms::Params actual = subpaths.front().st_rms->params();
  actual.capacity = 0;
  for (const Subpath& sp : subpaths) {
    const rms::Params& p = sp.st_rms->params();
    actual.capacity += p.capacity;
    actual.max_message_size = std::min(actual.max_message_size, p.max_message_size);
    actual.delay.a = std::max(actual.delay.a, p.delay.a);
    actual.delay.b_per_byte = std::max(actual.delay.b_per_byte, p.delay.b_per_byte);
    actual.bit_error_rate = std::max(actual.bit_error_rate, p.bit_error_rate);
  }
  actual.max_message_size -= std::min<std::uint64_t>(actual.max_message_size,
                                                     kStripeHeaderBytes);

  auto stream = std::unique_ptr<StripedStream>(
      new StripedStream(st, pm, std::move(actual), target));
  stream->subpaths_ = std::move(subpaths);
  // The first substream's ST id is unique per sending host (ST ids are
  // allocated from one per-host counter), so it serves as the wire-level
  // stripe id that keeps concurrent stripes from the same host apart.
  stream->stripe_id_ = stream->subpaths_.front().st_rms->id();
  for (std::size_t i = 0; i < stream->subpaths_.size(); ++i) {
    Subpath& sp = stream->subpaths_[i];
    StripedStream* self = stream.get();
    sp.st_rms->on_fast_ack([self, i](std::uint64_t ack_id) { self->on_ack(i, ack_id); });
    sp.st_rms->on_failure([self, i](const Error&) { self->on_subpath_failed(i); });
    if (pm != nullptr) pm->set_pinned(sp.st_rms->id(), true);
  }
  return stream;
}

StripedStream::StripedStream(st::SubtransportLayer& st, PathManager* pm,
                             rms::Params params, rms::Label target)
    : Rms(std::move(params)),
      st_(st),
      sim_(st.simulator()),
      pm_(pm),
      target_(target),
      pace_budget_(static_cast<double>(kPaceMinBytesPerTick)) {}

StripedStream::~StripedStream() { sim_.cancel(tick_timer_); }

std::size_t StripedStream::live_subpaths() const {
  std::size_t n = 0;
  for (const Subpath& sp : subpaths_) {
    if (!sp.dead) ++n;
  }
  return n;
}

Status StripedStream::do_send(rms::Message msg, Time transmission_deadline) {
  (void)transmission_deadline;
  const std::size_t idx = pick_subpath(subpaths_.size());
  if (idx == subpaths_.size()) {
    return make_error(Errc::kRmsFailed, "every stripe subpath is dead");
  }
  const std::uint64_t seq = next_seq_++;
  Unacked u;
  u.payload = std::move(msg.data);
  u.client_sent_at = msg.sent_at >= 0 ? msg.sent_at : sim_.now();
  auto [it, inserted] = unacked_.emplace(seq, std::move(u));
  (void)inserted;
  ++stats_.striped;
  const Status s = dispatch(seq, it->second, idx);
  if (!s.ok()) {
    // The substream refused the send outright — nothing went on the wire.
    // Surface the error and roll the sequence back: leaving the entry for
    // the ARQ would later deliver a message the caller was told failed,
    // and dropping it while keeping the sequence number would leave a
    // permanent hole that wedges the receiver's in-order delivery.
    unacked_.erase(it);
    --next_seq_;
    --stats_.striped;
    return s;
  }
  arm_tick();
  return s;
}

Status StripedStream::dispatch(std::uint64_t seq, Unacked& u, std::size_t subpath) {
  Subpath& sp = subpaths_[subpath];
  Bytes wire;
  wire.reserve(kStripeHeaderBytes + u.payload.size());
  Writer w(wire);
  w.u64(stripe_id_);
  w.u64(seq);
  w.u64(target_.port);
  w.i64(u.client_sent_at);
  w.bytes(u.payload.view());

  rms::Message m;
  m.data = std::move(wire);
  const Status s = sp.st_rms->send_acked(std::move(m), seq);
  u.subpath = subpath;
  u.sent_at = sim_.now();
  if (s.ok()) {
    ++sp.sent;
  } else {
    ++stats_.send_errors;
  }
  return s;
}

std::size_t StripedStream::pick_subpath(std::size_t avoid) {
  // Smoothed-RTT-weighted round robin: every pick credits each live
  // subpath in proportion to 1/RTT, then charges the winner one unit —
  // deterministic, smooth, and it re-weights as the EWMA moves. `avoid`
  // deprioritizes the subpath a retransmission just expired on (it is
  // chosen again only when it is the sole survivor).
  double total = 0.0;
  for (const Subpath& sp : subpaths_) {
    if (sp.dead || (sp.st_rms != nullptr && sp.st_rms->failed())) continue;
    total += 1.0 / std::max(sp.ewma_rtt_ns, 1.0);
  }
  if (total <= 0.0) return subpaths_.size();

  std::size_t best = subpaths_.size();
  double best_credit = 0.0;
  for (std::size_t i = 0; i < subpaths_.size(); ++i) {
    Subpath& sp = subpaths_[i];
    if (sp.dead || (sp.st_rms != nullptr && sp.st_rms->failed())) continue;
    sp.credit += (1.0 / std::max(sp.ewma_rtt_ns, 1.0)) / total;
    if (i == avoid) continue;
    if (best == subpaths_.size() || sp.credit > best_credit) {
      best = i;
      best_credit = sp.credit;
    }
  }
  if (best == subpaths_.size() && avoid < subpaths_.size() &&
      !subpaths_[avoid].dead && !subpaths_[avoid].st_rms->failed()) {
    best = avoid;  // sole survivor
  }
  if (best != subpaths_.size()) subpaths_[best].credit -= 1.0;
  return best;
}

Time StripedStream::rto_for(const Subpath& sp) const {
  const auto scaled = static_cast<Time>(kRtoMultiplier * sp.ewma_rtt_ns);
  return std::max(kMinRto, scaled);
}

void StripedStream::on_ack(std::size_t idx, std::uint64_t seq) {
  auto it = unacked_.find(seq);
  if (it == unacked_.end()) return;  // already acked via another copy
  ++stats_.acks;
  Subpath& sp = subpaths_[idx];
  sp.expired_rounds = 0;
  // Karn's rule: a retransmitted message's ack is ambiguous about which
  // transmission it answers — never feed it into the RTT estimate as-is.
  // But ignoring ambiguous acks entirely can freeze the estimate below the
  // real latency (every ack then looks late, every message retransmits,
  // and no clean sample ever arrives to break the loop). The escape hatch:
  // whichever copy the ack answers was sent no later than the *last*
  // transmission, so `now - sent_at` bounds that copy's RTT from below —
  // let it grow, never shrink, the estimate. (Measuring from the first
  // transmission instead would fold retransmission waits and establishment
  // queueing into the estimate; one substream stuck in a slow handshake
  // can then inflate a path's RTO past the lifetime of the transfer.)
  if (it->second.sent_at >= 0) {
    const auto sample = static_cast<double>(sim_.now() - it->second.sent_at);
    if (it->second.retx == 0) {
      sp.ewma_rtt_ns = kRttEwmaAlpha * sample + (1.0 - kRttEwmaAlpha) * sp.ewma_rtt_ns;
    } else if (sample > sp.ewma_rtt_ns) {
      sp.ewma_rtt_ns = kRttEwmaAlpha * sample + (1.0 - kRttEwmaAlpha) * sp.ewma_rtt_ns;
    }
  }
  // Smoothed delivery rate, feeding the paced-recovery budget. Same-instant
  // acks (a burst delivered in one event) contribute no interval; skip them.
  const Time now = sim_.now();
  const std::size_t acked_bytes = it->second.payload.size() + kStripeHeaderBytes;
  if (sp.last_ack_at >= 0 && now > sp.last_ack_at) {
    const double inst = static_cast<double>(acked_bytes) / to_seconds(now - sp.last_ack_at);
    sp.ack_rate_Bps = kRttEwmaAlpha * inst + (1.0 - kRttEwmaAlpha) * sp.ack_rate_Bps;
  }
  sp.last_ack_at = now;

  const bool rack_advance =
      it->second.subpath == idx && sp.rack.on_delivered(it->second.sent_at);
  unacked_.erase(it);
  // A newer send on this subpath was just confirmed: anything older still
  // unacknowledged past the reordering window is lost — recover it now
  // instead of waiting out the RTO (RACK, DESIGN.md §13).
  if (rack_advance) rack_scan(idx);
}

void StripedStream::rack_scan(std::size_t idx) {
  const Subpath& sp = subpaths_[idx];
  const auto srtt = static_cast<Time>(sp.ewma_rtt_ns);
  std::vector<std::uint64_t> lost;
  for (const auto& [seq, u] : unacked_) {
    if (u.subpath != idx || u.sent_at < 0) continue;
    if (sp.rack.lost(u.sent_at, srtt)) lost.push_back(seq);
  }
  for (std::uint64_t seq : lost) {
    auto it = unacked_.find(seq);
    if (it == unacked_.end()) continue;
    Unacked& u = it->second;
    if (!pace_allow(u.payload.size() + kStripeHeaderBytes)) break;
    const std::size_t next = pick_subpath(idx);
    if (next == subpaths_.size()) break;
    ++u.retx;
    ++stats_.retransmits;
    ++stats_.rack_retransmits;
    (void)dispatch(seq, u, next);
  }
  arm_tick();
}

bool StripedStream::pace_allow(std::size_t bytes) {
  if (pace_budget_ < static_cast<double>(bytes)) {
    ++stats_.pace_deferred;
    return false;
  }
  pace_budget_ -= static_cast<double>(bytes);
  return true;
}

void StripedStream::refill_pace_budget() {
  double rate = 0.0;
  for (const Subpath& sp : subpaths_) {
    if (!sp.dead) rate += sp.ack_rate_Bps;
  }
  pace_budget_ = std::max(static_cast<double>(kPaceMinBytesPerTick),
                          rate * to_seconds(kTickInterval) * kPaceGain);
}

void StripedStream::on_subpath_failed(std::size_t idx) {
  if (subpaths_[idx].dead) return;
  kill_subpath(idx, "substream failure");
}

void StripedStream::kill_subpath(std::size_t idx, const char* why) {
  Subpath& sp = subpaths_[idx];
  if (sp.dead) return;
  sp.dead = true;
  ++stats_.subpath_deaths;
  (void)why;
  if (live_subpaths() == 0) {
    fail(make_error(Errc::kRmsFailed, "every stripe subpath died"));
    return;
  }
  redistribute_from(idx);
  arm_tick();
}

void StripedStream::redistribute_from(std::size_t idx) {
  for (auto& [seq, u] : unacked_) {
    if (u.subpath != idx) continue;
    // Budget exhausted: the leftovers keep pointing at the dead subpath
    // and the tick scan moves them as the budget refills.
    if (!pace_allow(u.payload.size() + kStripeHeaderBytes)) return;
    const std::size_t next = pick_subpath(idx);
    if (next == subpaths_.size()) return;  // raced to zero survivors
    ++u.retx;
    ++stats_.retransmits;
    (void)dispatch(seq, u, next);
  }
}

void StripedStream::arm_tick() {
  if (tick_armed_ || unacked_.empty() || failed() || closed()) return;
  tick_armed_ = true;
  tick_timer_ = sim_.timer_after(kTickInterval, [this] { tick(); });
}

void StripedStream::tick() {
  tick_armed_ = false;
  const Time now = sim_.now();
  refill_pace_budget();
  std::vector<bool> expired(subpaths_.size(), false);
  for (auto& [seq, u] : unacked_) {
    if (u.sent_at < 0) continue;
    Subpath& usp = subpaths_[u.subpath];
    const bool orphaned =
        usp.dead || (usp.st_rms != nullptr && usp.st_rms->failed());
    if (!orphaned && usp.st_rms != nullptr && !usp.st_rms->established()) {
      // Still negotiating: the send is queued inside ST, not on the wire,
      // so an "ack timeout" would measure the control handshake, not the
      // path. Push the RTO window instead — if establishment ultimately
      // fails, the substream's failure callback kills the subpath and
      // redistributes everything queued on it.
      u.sent_at = now;
      continue;
    }
    if (!orphaned) {
      // Karn's rule, second half: each retransmission doubles the RTO.
      // Without backoff a frozen RTT estimate (retransmitted messages never
      // produce samples) can sit below the real ack latency and every tick
      // becomes a retransmit storm that feeds its own congestion.
      const Time rto =
          std::min(kMaxRto, rto_for(usp) << std::min<std::uint32_t>(u.retx, 6));
      if (now - u.sent_at < rto) continue;
      expired[u.subpath] = true;
    }
    // Orphaned sends (paced redistribution left them on a dead subpath)
    // move immediately; live-path expiries charge the same budget.
    if (!pace_allow(u.payload.size() + kStripeHeaderBytes)) continue;
    const std::size_t next = pick_subpath(u.subpath);
    if (next == subpaths_.size()) break;
    ++u.retx;
    ++stats_.retransmits;
    (void)dispatch(seq, u, next);
  }
  // One strike per scan round per subpath, however many sends expired on
  // it: death declaration is time-based (rounds), not count-based.
  for (std::size_t i = 0; i < subpaths_.size(); ++i) {
    if (subpaths_[i].dead) continue;
    if (expired[i]) {
      if (++subpaths_[i].expired_rounds >= kSubpathDeathAfter) {
        kill_subpath(i, "consecutive ack timeouts");
      }
    } else {
      // A quiet round breaks the streak: only an unbroken run of timeout
      // rounds (no acks, no expiry-free scans) declares the path dead.
      subpaths_[i].expired_rounds = 0;
    }
  }
  arm_tick();
}

void StripedStream::do_close() {
  sim_.cancel(tick_timer_);
  tick_armed_ = false;
  unacked_.clear();
  for (Subpath& sp : subpaths_) {
    if (sp.stream != nullptr && !sp.stream->failed()) sp.stream->close();
  }
}

// ---------------------------------------------------------------- receiver

StripeEndpoint::StripeEndpoint(sim::Simulator& sim, rms::PortRegistry& ports)
    : sim_(sim), ports_(ports) {
  ports_.bind(kStripePort, &port_);
  port_.set_handler([this](rms::Message m) { on_message(std::move(m)); });
}

StripeEndpoint::~StripeEndpoint() { ports_.unbind(kStripePort); }

void StripeEndpoint::on_message(rms::Message msg) {
  ++stats_.received;
  Reader r(msg.data);
  auto stripe = r.u64();
  auto seq = r.u64();
  auto port = r.u64();
  auto client_sent_at = r.i64();
  if (!stripe || !seq || !port || !client_sent_at) {
    ++stats_.malformed;
    return;
  }
  PeerState& ps = peers_[{msg.source.host, *stripe}];
  if (*seq < ps.next_expected || ps.buffer.count(*seq) != 0) {
    ++stats_.duplicates;  // a retransmit's extra copy
    return;
  }

  rms::Message out;
  out.data = r.rest();
  out.source = rms::Label{msg.source.host, kStripePort};
  out.target = rms::Label{msg.target.host, *port};
  out.sent_at = *client_sent_at;

  if (*seq != ps.next_expected) {
    if (ps.buffer.size() >= kReorderWindow) {
      ++stats_.window_overflow;  // the exactly-once guarantee just broke
      return;
    }
    ps.buffer.emplace(*seq, std::move(out));
    ++stats_.buffered;
    return;
  }

  // In order: deliver it and drain whatever the gap was holding back.
  rms::Port* p = ports_.find(out.target.port);
  if (p != nullptr) p->deliver(std::move(out), sim_.now());
  ++stats_.delivered;
  ++ps.next_expected;
  auto it = ps.buffer.begin();
  while (it != ps.buffer.end() && it->first == ps.next_expected) {
    rms::Port* bp = ports_.find(it->second.target.port);
    if (bp != nullptr) bp->deliver(std::move(it->second), sim_.now());
    ++stats_.delivered;
    ++ps.next_expected;
    it = ps.buffer.erase(it);
  }
}

}  // namespace dash::path
