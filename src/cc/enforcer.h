// The model-based capacity enforcer (DESIGN.md §13).
//
// §4.4 makes capacity enforcement a pluggable policy of the stream
// protocol; this enforcer plugs the cc subsystem into that same slot. It
// composes the pieces:
//
//   DeliveryRateSampler ──samples──▶ BandwidthModel ──rate──▶ Pacer
//
// can_send admits a send only when it fits the model's congestion window
// AND the pacing schedule allows it; note_sent charges both. The stream
// additionally feeds per-sequence send/ack events so the sampler can form
// delivery-rate samples, and forwards fabric source-quench signals.
//
// Deterministic reservations are untouched by construction: the enforcer
// only ever *delays or shrinks* what the stream was already allowed to
// send — it adds no traffic, and admission control (netrms) still governs
// the fabric share.
#pragma once

#include <cstdint>
#include <optional>

#include "cc/model.h"
#include "cc/pacer.h"
#include "cc/sampler.h"
#include "rms/params.h"
#include "sim/simulator.h"
#include "transport/enforcer.h"

namespace dash::cc {

class ModelEnforcer final : public transport::CapacityEnforcer {
 public:
  /// The model's initial bandwidth is seeded from the RMS contract:
  /// capacity over the §4.4 rate period A + B·capacity.
  ModelEnforcer(sim::Simulator& sim, const rms::Params& params);

  // CapacityEnforcer: window (model cwnd) + pacing schedule.
  bool can_send(std::size_t n) override {
    return inflight_ + n <= model_.cwnd_bytes() && pacer_.can_send(n);
  }
  void note_sent(std::size_t n) override {
    inflight_ += n;
    pacer_.note_sent(n);
  }
  void note_acked(std::size_t n) override {
    inflight_ -= std::min<std::uint64_t>(inflight_, n);
  }
  Time next_allowed(std::size_t n) override {
    // Window-bound: only an ack can unblock. Pace-bound: a known time.
    if (inflight_ + n > model_.cwnd_bytes()) return kTimeNever;
    return pacer_.next_allowed(n);
  }

  // Per-sequence evidence from the stream protocol.
  void on_packet_sent(std::uint64_t id, std::size_t bytes, bool app_limited) {
    sampler_.on_sent(id, bytes, sim_.now(), app_limited);
  }
  void on_packet_retransmitted(std::uint64_t id) {
    sampler_.on_retransmit(id, sim_.now());
  }
  /// Consumes the ack, updates the model, refreshes the pacing rate.
  /// Returns the unambiguous RTT sample, if any (for the stream's RTO
  /// estimator). `rtt_eligible` is false for late transport-level acks
  /// that arrive over the slow reverse path.
  std::optional<Time> on_packet_acked(std::uint64_t id, bool rtt_eligible = true);

  /// Fabric source-quench reached this stream.
  void on_quench() {
    model_.on_quench(sim_.now());
    pacer_.set_rate(model_.pacing_rate_Bps());
  }

  // Telemetry surface (cc.* collector).
  double pacing_rate_Bps() const { return model_.pacing_rate_Bps(); }
  double btlbw_Bps() const { return model_.btlbw_Bps(); }
  Time min_rtt() const { return model_.min_rtt(); }
  Phase phase() const { return model_.phase(); }
  std::uint64_t cwnd() const { return model_.cwnd_bytes(); }
  std::uint64_t inflight() const { return inflight_; }
  std::uint64_t quenches() const { return model_.quenches(); }
  std::uint64_t delivered_bytes() const { return sampler_.delivered_bytes(); }
  const BandwidthModel& model() const { return model_; }

 private:
  sim::Simulator& sim_;
  DeliveryRateSampler sampler_;
  BandwidthModel model_;
  Pacer pacer_;
  std::uint64_t inflight_ = 0;
};

}  // namespace dash::cc
