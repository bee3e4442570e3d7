// RMS parameters (paper §2.1–§2.4).
//
// An RMS (real-time message stream) is a simplex channel parameterized by
// reliability/security booleans, capacity, maximum message size, a delay
// bound of the form A + B·size with a bound *type* (deterministic,
// statistical, best-effort), optional statistical workload parameters, and
// an average bit error rate. Creation requests carry a *desired* and an
// *acceptable* parameter set; the provider picks actual parameters
// compatible with the acceptable set, matching the desired set as closely
// as it can (§2.4).
#pragma once

#include <cstdint>
#include <string>

#include "util/time.h"

namespace dash::rms {

using dash::Time;

/// Reliability and security parameters (§2.1). All default to false: the
/// weakest service, so a zero-initialized request asks for nothing.
struct Quality {
  /// All sent messages are delivered unless the RMS fails.
  bool reliable = false;
  /// Impersonation (incorrect source label) is impossible.
  bool authenticated = false;
  /// Eavesdropping is impossible.
  bool privacy = false;

  friend bool operator==(const Quality&, const Quality&) = default;
};

/// True iff `actual` provides every property `requested` asks for (§2.4
/// rule 1: "the actual reliability and security properties include those
/// requested").
constexpr bool includes(const Quality& actual, const Quality& requested) {
  return (actual.reliable || !requested.reliable) &&
         (actual.authenticated || !requested.authenticated) &&
         (actual.privacy || !requested.privacy);
}

/// Delay-bound types (§2.3), ordered by strength.
enum class BoundType : std::uint8_t {
  kBestEffort = 0,     ///< never rejected; deadlines only order resources
  kStatistical = 1,    ///< bound holds with probability >= delay_probability
  kDeterministic = 2,  ///< hard bound; resources reserved per RMS
};

const char* bound_type_name(BoundType t);

/// True iff bound type `actual` is at least as strong as `requested`.
/// (§4.2: a deterministic/statistical stream can ride only on a
/// deterministic/statistical stream; best-effort accepts anything.)
constexpr bool at_least_as_strong(BoundType actual, BoundType requested) {
  return static_cast<std::uint8_t>(actual) >= static_cast<std::uint8_t>(requested);
}

/// The delay bound: delay(message) <= a + b_per_byte * size (§2.2).
struct DelayBound {
  BoundType type = BoundType::kBestEffort;
  Time a = kTimeNever;        ///< fixed component (ns)
  Time b_per_byte = 0;        ///< per-byte component (ns/byte)

  /// The bound evaluated for a message of `size` bytes.
  constexpr Time bound_for(std::uint64_t size) const {
    if (a == kTimeNever) return kTimeNever;
    return a + b_per_byte * static_cast<Time>(size);
  }

  friend bool operator==(const DelayBound&, const DelayBound&) = default;
};

/// The static-priority class of a delay, for the priority-discipline
/// baselines (lower = more urgent): one class per 10 ms, capped at 100, and
/// kTimeNever in the last class. This is the granularity loss §5 charges to
/// priorities ("compared to systems that use only priorities ... deadlines
/// optimize usage").
constexpr int priority_class(Time delay) {
  const Time cls = delay / msec(10);
  return cls < 100 ? static_cast<int>(cls) : 100;
}

/// Workload description and guarantee level for statistical bounds (§2.2).
/// average_load / burstiness are supplied by the client; delay_probability
/// is guaranteed by the provider.
struct StatisticalParams {
  double average_load_bps = 0.0;   ///< mean offered load, bits/second
  double burstiness = 1.0;         ///< peak/mean ratio of the offered load
  double delay_probability = 1.0;  ///< P(delay <= bound) guaranteed

  friend bool operator==(const StatisticalParams&, const StatisticalParams&) = default;
};

/// The complete RMS parameter set (§2.1–2.3).
struct Params {
  Quality quality;

  /// Upper bound on bytes outstanding (sent, not yet delivered). Enforced
  /// by the *clients*, not the provider (§2.2, §4.4).
  std::uint64_t capacity = 0;

  /// Upper bound on a single message; never exceeds capacity (§2.2).
  std::uint64_t max_message_size = 0;

  DelayBound delay;

  /// Meaningful when delay.type == kStatistical.
  StatisticalParams statistical;

  /// Expected fraction of messages corrupted or lost to buffer overrun,
  /// guaranteed by the provider (§2.2).
  double bit_error_rate = 1.0;

  friend bool operator==(const Params&, const Params&) = default;
};

/// §2.4 compatibility: actual vs requested. Actual must (1) include the
/// requested quality, (2) offer >= capacity and max message size, and
/// (3) have delay-bound and error-rate parameters no greater than requested
/// (with a bound type at least as strong, and at least the requested delay
/// probability for statistical bounds).
bool compatible(const Params& actual, const Params& requested);

/// Validates internal consistency (max_message_size <= capacity, error rate
/// within [0,1], delay probability within [0,1], nonnegative components).
bool well_formed(const Params& p);

/// The §2.3 verdict on a delay bound after `samples` observed deliveries,
/// `misses` of them over the bound: zero misses for a deterministic bound,
/// a miss fraction within 1 - delay_probability for a statistical one,
/// always true for best-effort. telemetry::GuaranteeLedger, the one
/// checker of delivered delays, judges by this rule.
bool delay_guarantee_holds(const Params& p, std::uint64_t misses,
                           std::uint64_t samples);

/// The paper's implied bandwidth (§2.2): a client may send a message of
/// maximum size M every D·M/C seconds, yielding about C/D bytes/second,
/// where D is the delay bound of a maximum-size message. Returns
/// bytes/second; 0 if the parameters imply no finite bound.
double implied_bandwidth_bytes_per_sec(const Params& p);

/// A request: the provider returns actual parameters compatible with
/// `acceptable`, matching `desired` as closely as possible (§2.4).
struct Request {
  Params desired;
  Params acceptable;
};

/// A request whose desired and acceptable sets are identical.
inline Request exact_request(const Params& p) { return Request{p, p}; }

/// Debug rendering ("rel+auth cap=4096 msg<=1024 det A=2ms B=1ns/B ber=1e-9").
std::string to_string(const Params& p);

}  // namespace dash::rms
