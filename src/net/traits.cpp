#include "net/traits.h"

#include <cmath>

#include "net/queue.h"

namespace dash::net {

const char* discipline_name(Discipline d) {
  switch (d) {
    case Discipline::kDeadline: return "deadline";
    case Discipline::kFifo: return "fifo";
    case Discipline::kPriority: return "priority";
  }
  return "?";
}

QualityLimits quality_limits(const NetworkTraits& traits, const rms::Quality& q) {
  QualityLimits out;

  if (q.reliable && traits.bit_error_rate > 0.0) {
    // The medium loses packets; the network cannot promise delivery.
    return out;
  }
  if (q.privacy && !(traits.trusted || traits.link_encryption)) {
    return out;
  }
  if (q.authenticated && !traits.trusted) {
    return out;
  }

  out.supported = true;
  out.max_bandwidth_bps = traits.bits_per_second;
  // A packet cannot arrive sooner than propagation plus the transmission
  // time of a maximum-size frame (it may queue behind one).
  out.min_delay_a = traits.propagation_delay +
                    transmission_time(traits.max_packet_bytes, traits.bits_per_second);
  out.residual_error_rate =
      packet_error_probability(traits.bit_error_rate, traits.max_packet_bytes);
  return out;
}

double packet_error_probability(double ber, std::size_t bytes) {
  if (ber <= 0.0) return 0.0;
  if (ber >= 1.0) return 1.0;
  const double bits = 8.0 * static_cast<double>(bytes);
  return 1.0 - std::pow(1.0 - ber, bits);
}

bool corrupt_bits(Packet& p, double ber, Rng& rng) {
  const double perr = packet_error_probability(ber, p.size());
  if (perr <= 0.0 || !rng.chance(perr)) return false;
  p.corrupted = true;
  if (!p.payload.empty()) {
    const auto pos = static_cast<std::size_t>(rng.below(p.payload.size()));
    p.payload.flip_bit(pos, static_cast<std::uint8_t>(1u << rng.below(8)));
  }
  return true;
}

}  // namespace dash::net
