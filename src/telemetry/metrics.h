// Cross-layer metrics registry (DESIGN.md §8).
//
// Every layer of the stack reports into one MetricsRegistry: named
// counters, gauges, and fixed log₂-bucket latency histograms. The hot path
// is allocation-free — layers resolve a metric by name once (set_metrics /
// collect time) and then touch plain integers; name lookup and string
// assembly happen only at registration and export. Exporters (JSON lines,
// report tables, Chrome trace events) live in telemetry/export.h.
//
// Naming scheme: dot-separated "<layer>.<instance>.<metric>", e.g.
// "net.ethernet.sent", "st.1.delivery_ns", "rkom.2.call_rtt_ns". Metrics
// measured in nanoseconds carry an "_ns" suffix.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace dash::telemetry {

/// A monotonically increasing count. `set` exists for collectors that
/// mirror an existing layer-local stats struct into the registry.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level (queue depth, headroom, utilization).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Latency histogram with fixed log₂ buckets: bucket 0 holds the value 0,
/// bucket b >= 1 holds values in [2^(b-1), 2^b). 64 buckets cover the whole
/// uint64 range, so observe() never allocates or rebalances. Quantiles are
/// linearly interpolated inside the containing bucket and clamped to the
/// exact observed min/max, which keeps p50/p95/p99 within one power of two
/// of the true value — sufficient for guarantee accounting, and O(1) memory
/// regardless of run length (unlike dash::Samples).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::uint64_t x) {
    ++count_;
    sum_ += x;
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
    ++buckets_[bucket_of(x)];
  }

  /// Index of the bucket holding `x`.
  static std::size_t bucket_of(std::uint64_t x) {
    return static_cast<std::size_t>(std::bit_width(x));
  }

  /// Lower edge of bucket `b` (inclusive).
  static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Upper edge of bucket `b` (exclusive; saturates at the top bucket).
  static std::uint64_t bucket_hi(std::size_t b) {
    return b >= kBuckets - 1 ? ~std::uint64_t{0} : std::uint64_t{1} << b;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }

  /// Interpolated quantile, p in [0, 1].
  double quantile(double p) const {
    if (count_ == 0) return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      const double in_bucket = static_cast<double>(buckets_[b]);
      if (target < static_cast<double>(before) + in_bucket) {
        const double frac =
            in_bucket <= 1.0 ? 0.0 : (target - static_cast<double>(before)) / (in_bucket - 1.0);
        const double lo = static_cast<double>(bucket_lo(b));
        const double hi = static_cast<double>(std::min(bucket_hi(b), max()));
        const double v = lo + frac * (hi - lo);
        return std::clamp(v, static_cast<double>(min()), static_cast<double>(max()));
      }
      before += buckets_[b];
    }
    return static_cast<double>(max());
  }

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// The registry: name → metric, one namespace per kind. References returned
/// by counter()/gauge()/histogram() are stable for the registry's lifetime
/// (std::map nodes never move), so layers cache them and increment without
/// further lookups.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  /// Value of a counter, 0 if absent (test convenience).
  std::uint64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dash::telemetry
