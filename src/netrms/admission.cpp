#include "netrms/admission.h"

#include <algorithm>

namespace dash::netrms {
namespace {

/// Fraction of the media bandwidth deterministic + statistical reservations
/// may claim; the rest absorbs best-effort traffic and scheduling slack.
constexpr double kUtilizationLimit = 0.9;

}  // namespace

double AdmissionController::committed_bps(const rms::Params& params) {
  return rms::implied_bandwidth_bytes_per_sec(params) * 8.0;
}

double AdmissionController::effective_bps(const rms::Params& params) {
  const auto& s = params.statistical;
  // Scale the declared mean toward the peak as the guaranteed probability
  // approaches 1: a P=1.0 guarantee must provision for the full burst,
  // while a loose P can ride on statistical multiplexing.
  const double burst_factor = 1.0 + (s.burstiness - 1.0) * s.delay_probability;
  return s.average_load_bps * burst_factor;
}

double AdmissionController::bps_headroom() const {
  const double limit =
      static_cast<double>(config_.bits_per_second) * kUtilizationLimit;
  return std::max(0.0, limit - reserved_bps_);
}

Status AdmissionController::admit(std::uint64_t stream, const rms::Params& params) {
  double need_bps = 0.0;
  std::uint64_t need_buffer = 0;

  switch (params.delay.type) {
    case rms::BoundType::kBestEffort:
      // "Best-effort RMS creation requests are never rejected" (§2.3).
      ++admitted_;
      return Status::ok_status();
    case rms::BoundType::kDeterministic:
      need_bps = committed_bps(params);
      // Worst case, the RMS's full capacity is queued at the bottleneck.
      need_buffer = params.capacity;
      break;
    case rms::BoundType::kStatistical:
      need_bps = effective_bps(params);
      // Provision buffer for the declared burst, not the full capacity.
      need_buffer = std::min<std::uint64_t>(
          params.capacity,
          static_cast<std::uint64_t>(static_cast<double>(params.max_message_size) *
                                     std::max(1.0, params.statistical.burstiness)));
      break;
  }

  const double limit =
      static_cast<double>(config_.bits_per_second) * kUtilizationLimit;
  if (reserved_bps_ + need_bps > limit) {
    ++rejected_;
    return make_error(Errc::kAdmissionRejected,
                      "bandwidth exhausted: reserved " + std::to_string(reserved_bps_) +
                          " + " + std::to_string(need_bps) + " bps exceeds limit " +
                          std::to_string(limit));
  }
  if (reserved_buffer_ + need_buffer > config_.buffer_bytes) {
    ++rejected_;
    return make_error(Errc::kAdmissionRejected,
                      "buffer exhausted: reserved " + std::to_string(reserved_buffer_) +
                          " + " + std::to_string(need_buffer) + " bytes exceeds " +
                          std::to_string(config_.buffer_bytes));
  }

  grants_[stream] = Grant{need_bps, need_buffer};
  reserved_bps_ += need_bps;
  reserved_buffer_ += need_buffer;
  ++admitted_;
  return Status::ok_status();
}

void AdmissionController::release(std::uint64_t stream) {
  auto it = grants_.find(stream);
  if (it == grants_.end()) return;
  reserved_bps_ -= it->second.bps;
  reserved_buffer_ -= it->second.buffer;
  grants_.erase(it);
}

}  // namespace dash::netrms
