#include "rms/params.h"

#include <cstdio>

namespace dash::rms {

const char* bound_type_name(BoundType t) {
  switch (t) {
    case BoundType::kBestEffort: return "best-effort";
    case BoundType::kStatistical: return "statistical";
    case BoundType::kDeterministic: return "deterministic";
  }
  return "?";
}

bool compatible(const Params& actual, const Params& requested) {
  // (1) reliability and security include those requested.
  if (!includes(actual.quality, requested.quality)) return false;

  // (2) capacity and maximum message size no less than requested.
  if (actual.capacity < requested.capacity) return false;
  if (actual.max_message_size < requested.max_message_size) return false;

  // (3) delay bound and error rate no greater than requested.
  if (!at_least_as_strong(actual.delay.type, requested.delay.type)) return false;
  if (actual.delay.a > requested.delay.a) return false;
  if (actual.delay.b_per_byte > requested.delay.b_per_byte) return false;
  if (actual.bit_error_rate > requested.bit_error_rate) return false;

  // Statistical bounds additionally guarantee a delivery probability.
  if (requested.delay.type == BoundType::kStatistical &&
      actual.delay.type == BoundType::kStatistical &&
      actual.statistical.delay_probability < requested.statistical.delay_probability) {
    return false;
  }
  return true;
}

bool delay_guarantee_holds(const Params& p, std::uint64_t misses,
                           std::uint64_t samples) {
  switch (p.delay.type) {
    case BoundType::kDeterministic:
      return misses == 0;
    case BoundType::kStatistical: {
      const double miss_fraction =
          samples == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(samples);
      return miss_fraction <= 1.0 - p.statistical.delay_probability + 1e-9;
    }
    case BoundType::kBestEffort:
      return true;
  }
  return true;
}

bool well_formed(const Params& p) {
  if (p.max_message_size > p.capacity) return false;
  if (p.bit_error_rate < 0.0 || p.bit_error_rate > 1.0) return false;
  if (p.delay.a < 0 || p.delay.b_per_byte < 0) return false;
  if (p.delay.type == BoundType::kStatistical) {
    const auto& s = p.statistical;
    if (s.delay_probability < 0.0 || s.delay_probability > 1.0) return false;
    if (s.average_load_bps < 0.0 || s.burstiness < 1.0) return false;
  }
  return true;
}

double implied_bandwidth_bytes_per_sec(const Params& p) {
  if (p.max_message_size == 0 || p.capacity == 0) return 0.0;
  const Time d = p.delay.bound_for(p.max_message_size);
  if (d == kTimeNever || d <= 0) return 0.0;
  return static_cast<double>(p.capacity) / to_seconds(d);
}

std::string to_string(const Params& p) {
  std::string s;
  if (p.quality.reliable) s += "rel+";
  if (p.quality.authenticated) s += "auth+";
  if (p.quality.privacy) s += "priv+";
  if (!s.empty()) s.pop_back();
  if (s.empty()) s = "raw";

  char buf[160];
  std::snprintf(buf, sizeof buf, " cap=%llu msg<=%llu %s A=%s B=%lldns/B ber=%.2g",
                static_cast<unsigned long long>(p.capacity),
                static_cast<unsigned long long>(p.max_message_size),
                bound_type_name(p.delay.type), format_time(p.delay.a).c_str(),
                static_cast<long long>(p.delay.b_per_byte), p.bit_error_rate);
  s += buf;
  if (p.delay.type == BoundType::kStatistical) {
    std::snprintf(buf, sizeof buf, " load=%.0fbps burst=%.1f P=%.3f",
                  p.statistical.average_load_bps, p.statistical.burstiness,
                  p.statistical.delay_probability);
    s += buf;
  }
  return s;
}

}  // namespace dash::rms
