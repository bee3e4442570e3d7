// Shared scaffolding for the experiment benches (see DESIGN.md §4).
//
// Each bench binary regenerates one figure/claim of the paper as a printed
// table. Worlds are node::World (node/world.h); the benches sweep
// parameters and report the series.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/datagram.h"
#include "node/world.h"
#include "rkom/rkom.h"
#include "telemetry/export.h"
#include "transport/stream.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace dash::bench {

/// A saturating feeder for a StreamSender (keeps the IPC port full).
class Feeder {
 public:
  explicit Feeder(transport::StreamSender& sender, std::size_t total = 0)
      : sender_(sender), total_(total) {
    sender_.on_writable([this] { fill(); });
    fill();
  }

  std::size_t written() const { return written_; }
  bool done() const { return total_ != 0 && written_ >= total_; }

 private:
  void fill() {
    while (total_ == 0 || written_ < total_) {
      const std::size_t n =
          total_ == 0 ? 4096 : std::min<std::size_t>(4096, total_ - written_);
      if (!sender_.write(patterned_bytes(n, written_)).ok()) return;
      written_ += n;
    }
  }

  transport::StreamSender& sender_;
  std::size_t total_;
  std::size_t written_ = 0;
};

/// Machine-readable bench results. Each printed table row that matters for
/// the perf trajectory is also record()ed here; the destructor writes
/// BENCH_<name>.json — a JSON array of {metric, value, unit, params}
/// objects — into the working directory, so CI and scripts can diff runs
/// without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void record(const std::string& metric, double value, const std::string& unit,
              const std::map<std::string, std::string>& params = {}) {
    std::string row = "  {\"metric\":\"" + telemetry::json_escape(metric) +
                      "\",\"value\":" + telemetry::json_number(value) +
                      ",\"unit\":\"" + telemetry::json_escape(unit) + "\"";
    if (!params.empty()) {
      row += ",\"params\":{";
      bool first = true;
      for (const auto& [k, v] : params) {
        if (!first) row += ',';
        first = false;
        row += "\"" + telemetry::json_escape(k) + "\":\"" +
               telemetry::json_escape(v) + "\"";
      }
      row += '}';
    }
    rows_.push_back(row + '}');
  }

  ~BenchJson() {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += rows_[i];
      if (i + 1 < rows_.size()) out += ',';
      out += '\n';
    }
    out += "]\n";
    const std::string path = "BENCH_" + name_ + ".json";
    if (telemetry::write_file(path, out).ok()) {
      std::printf("\nwrote %s (%zu results)\n", path.c_str(), rows_.size());
    }
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
};

/// Reads a baseline file: one `key value` pair per line. Empty when the
/// file is missing.
inline std::map<std::string, double> read_baseline(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string key;
  double value = 0;
  while (in >> key >> value) out[key] = value;
  return out;
}

/// The baseline gate every gated bench shares:
///   --write-baseline <path>   record this run's gated metrics
///   --check <path> [<tol%>]   compare them against a recorded baseline
/// A metric regresses when it moves past its baseline by more than the
/// tolerance (percent, default 20) plus an absolute slack, in the bench's
/// direction: below base·(1 − tol) − slack when higher is better, above
/// base·(1 + tol) + slack when lower is better. A missing baseline file, or
/// a baseline key the run did not produce, fails the check too.
class Gate {
 public:
  enum class Better { kHigher, kLower };

  /// Parses the command line; exits with status 2 on anything else.
  Gate(int argc, char** argv, Better better, double slack)
      : better_(better), slack_(slack) {
    for (int i = 1; i < argc; ++i) {
      const bool check = std::strcmp(argv[i], "--check") == 0;
      if (!check && std::strcmp(argv[i], "--write-baseline") != 0) usage(argv[0]);
      if (i + 1 >= argc) usage(argv[0]);
      (check ? check_path_ : write_path_) = argv[++i];
      if (check && i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        char* end = nullptr;
        tolerance_pct_ = std::strtod(argv[++i], &end);
        if (*end != '\0') usage(argv[0]);
      }
    }
  }

  bool checking() const { return !check_path_.empty(); }

  /// Writes and/or checks `current`. Returns the exit status: 1 when the
  /// check fails, else 0; on success prints "<name> gate passed".
  int finish(const std::map<std::string, double>& current, const char* name) const {
    if (!write_path_.empty()) {
      // Shortest form that reads back exactly: a value rounded down on
      // write would fail its own --check at tolerance 0.
      std::ofstream out(write_path_);
      for (const auto& [k, v] : current) {
        char buf[32];
        const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        out << k << " " << std::string_view(buf, static_cast<std::size_t>(end - buf))
            << "\n";
      }
      std::printf("wrote baseline to %s\n", write_path_.c_str());
    }
    if (!checking()) return 0;
    const auto base = read_baseline(check_path_);
    if (base.empty()) {
      std::fprintf(stderr, "no baseline at %s\n", check_path_.c_str());
      return 1;
    }
    const bool higher = better_ == Better::kHigher;
    const double tol = tolerance_pct_ / 100.0;
    bool ok = true;
    for (const auto& [key, base_v] : base) {
      auto it = current.find(key);
      if (it == current.end()) {
        std::fprintf(stderr, "MISSING: baseline key %s not measured\n", key.c_str());
        ok = false;
        continue;
      }
      const double limit =
          higher ? base_v * (1.0 - tol) - slack_ : base_v * (1.0 + tol) + slack_;
      if (higher ? it->second < limit : it->second > limit) {
        std::fprintf(stderr, "REGRESSION: %s %.4f %s limit %.4f (baseline %.4f)\n",
                     key.c_str(), it->second, higher ? "<" : ">", limit, base_v);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("%s gate passed (tolerance %.0f%%)\n", name, tolerance_pct_);
    return 0;
  }

 private:
  [[noreturn]] static void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--write-baseline <path>] [--check <path> [<tol%%>]]\n",
                 argv0);
    std::exit(2);
  }

  Better better_;
  double slack_;
  double tolerance_pct_ = 20.0;
  std::string write_path_;
  std::string check_path_;
};

inline void title(const char* id, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", id, what);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("%s\n", text); }

/// Deliveries over their stream's negotiated delay bound (A + B·size), as a
/// fraction of every delivery `ledger` accounted.
inline double miss_fraction(const telemetry::GuaranteeLedger& ledger) {
  std::uint64_t misses = 0;
  std::uint64_t delivered = 0;
  for (const auto& [id, account] : ledger.accounts()) {
    misses += account.misses;
    delivered += account.delivered;
  }
  return delivered == 0 ? 0.0
                        : static_cast<double>(misses) / static_cast<double>(delivered);
}

}  // namespace dash::bench
