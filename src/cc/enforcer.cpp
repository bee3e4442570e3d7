#include "cc/enforcer.h"

namespace dash::cc {
namespace {

/// Bytes a sender may burst back-to-back before pacing engages.
constexpr std::size_t kPaceBurstBytes = 2048;

BandwidthModel seeded(const rms::Params& params) {
  // The §4.4 pessimistic rate: capacity bytes per A + B·capacity period.
  // It is a guaranteed-safe floor, so startup begins from a rate the RMS
  // contract already promised and probes upward from there.
  const Time period =
      params.delay.a + params.delay.b_per_byte * static_cast<Time>(params.capacity);
  if (params.capacity == 0 || period <= 0) return BandwidthModel();
  return BandwidthModel(static_cast<double>(params.capacity) / to_seconds(period));
}

}  // namespace

ModelEnforcer::ModelEnforcer(sim::Simulator& sim, const rms::Params& params)
    : sim_(sim), model_(seeded(params)), pacer_(sim) {
  pacer_.set_burst(kPaceBurstBytes);
  pacer_.set_rate(model_.pacing_rate_Bps());
}

std::optional<Time> ModelEnforcer::on_packet_acked(std::uint64_t id,
                                                   bool rtt_eligible) {
  auto sample = sampler_.on_ack(id, sim_.now(), rtt_eligible);
  if (!sample) return std::nullopt;
  model_.on_sample(*sample, sampler_.delivered_bytes(), inflight_, sim_.now());
  pacer_.set_rate(model_.pacing_rate_Bps());
  return sample->rtt;
}

}  // namespace dash::cc
