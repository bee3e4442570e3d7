// Measurement helpers used by tests and the bench harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dash {

/// Stores samples and answers percentile queries; used for delay
/// distributions (statistical delay bounds, §2.3). Sorted state survives
/// interleaved add/percentile calls: a query sorts only the unsorted tail
/// and merges it in (O(k log k + n) for k new samples), instead of
/// re-sorting all n samples on every query after an add.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double mean() const {
    if (values_.empty()) return 0.0;
    double s = 0.0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

  /// p in [0, 1]. Nearest-rank percentile.
  double percentile(double p) {
    if (values_.empty()) return 0.0;
    sort();
    const double rank = p * static_cast<double>(values_.size() - 1);
    const auto idx = static_cast<std::size_t>(rank);
    return values_[std::min(idx, values_.size() - 1)];
  }

  double max() {
    if (values_.empty()) return 0.0;
    sort();
    return values_.back();
  }

  double min() {
    if (values_.empty()) return 0.0;
    sort();
    return values_.front();
  }

 private:
  void sort() {
    if (sorted_prefix_ == values_.size()) return;
    const auto mid = values_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
    std::sort(mid, values_.end());
    std::inplace_merge(values_.begin(), mid, values_.end());
    sorted_prefix_ = values_.size();
  }

  std::vector<double> values_;
  std::size_t sorted_prefix_ = 0;  ///< values_[0..sorted_prefix_) are sorted
};

}  // namespace dash
