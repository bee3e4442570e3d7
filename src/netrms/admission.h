// Admission control for network RMS (paper §2.3).
//
//   * deterministic — "system resources (buffer space, media bandwidth) are
//     allocated to individual RMS's. The RMS provider rejects an RMS
//     request if its worst-case demands cannot be met with free resources";
//   * statistical — "rejected if either its expected message delay or its
//     expected bit error rate is higher than acceptable": we run a
//     simplified effective-bandwidth test over the declared workload
//     (average load, burstiness);
//   * best-effort — "creation requests are never rejected".
#pragma once

#include <cstdint>
#include <map>

#include "rms/params.h"
#include "util/result.h"

namespace dash::netrms {

/// Tracks the bandwidth and buffer commitments of one shared resource (an
/// Ethernet segment or an internet path bottleneck).
class AdmissionController {
 public:
  struct Config {
    std::uint64_t bits_per_second = 10'000'000;
    std::uint64_t buffer_bytes = 64 * 1024;
  };

  explicit AdmissionController(Config config) : config_(config) {}

  /// Decides whether an RMS with `params` can be admitted; on success the
  /// reservation is recorded under `stream`. Best-effort always succeeds.
  Status admit(std::uint64_t stream, const rms::Params& params);

  /// Releases the reservation of `stream` (no-op for best-effort streams).
  void release(std::uint64_t stream);

  /// Bits/second a deterministic RMS with these parameters commits: the
  /// paper's implied bandwidth C/D (§2.2), in bits.
  static double committed_bps(const rms::Params& params);

  /// Effective bits/second a statistical RMS commits given its declared
  /// workload: average load scaled up for burstiness, discounted by the
  /// guaranteed delay probability (a loose effective-bandwidth model).
  static double effective_bps(const rms::Params& params);

  double reserved_bps() const { return reserved_bps_; }
  std::uint64_t reserved_buffer() const { return reserved_buffer_; }
  double bps_headroom() const;
  std::uint64_t admitted_count() const { return admitted_; }
  std::uint64_t rejected_count() const { return rejected_; }
  const Config& config() const { return config_; }

 private:
  struct Grant {
    double bps;
    std::uint64_t buffer;
  };

  Config config_;
  std::map<std::uint64_t, Grant> grants_;
  double reserved_bps_ = 0.0;
  std::uint64_t reserved_buffer_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace dash::netrms
