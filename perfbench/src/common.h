// Shared pieces of the DASH stack benchmark: options, the result report,
// process samples, percentiles, a seeded byte stream, and the span tracer.
//
// Every layer is measured from outside: the workloads time their own calls
// into each layer's public functions (spans) and read each layer's public
// stats() counters after the run. Nothing here reaches into the stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace perfbench {

using dash::Bytes;
using dash::BytesView;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured phase, wall seconds
  bool trace = false;   ///< traced run: per-layer metrics instead of end-to-end
  bool tiny = false;    ///< smoke-test sizes
  std::string out_dir = ".bench_out";  ///< where the span file goes
};

/// The result line: correctness, operation counts, and named metrics.
class Report {
 public:
  explicit Report(bool trace);

  /// Sets a metric of the current mode's list; names outside the list are a
  /// programming error and abort.
  void set(const std::string& name, double value);
  /// Sets a metric only when this is a traced run.
  void layer(const std::string& name, double value) {
    if (trace_) set(name, value);
  }
  /// Sets a metric only when this is an untraced run.
  void e2e(const std::string& name, double value) {
    if (!trace_) set(name, value);
  }

  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail_ops(std::uint64_t n, const std::string& why);
  /// A correctness check: a false `ok` fails the run and counts one failure.
  void check(bool ok, const std::string& what);
  void note(const std::string& line);

  bool correct() const { return correct_ && failed_ == 0; }

  /// Prints the notes, then the one-line JSON result.
  void print() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0;
    bool set = false;
  };
  bool trace_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
};

/// Wall clock, process CPU time and allocator counters at one instant.
struct ProcSample {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  static ProcSample now();
  double cpu_s() const { return user_s + sys_s; }
};

/// Differences between two samples, normalised per operation by callers.
struct ProcDelta {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  double allocs = 0;
  double alloc_bytes = 0;

  ProcDelta() = default;
  ProcDelta(const ProcSample& a, const ProcSample& b);
  double cpu_s() const { return user_s + sys_s; }
  /// proc.* per-layer metrics for `ops` operations.
  void report(Report& r, double ops) const;
};

double wall_seconds();
double peak_rss_mb();

/// Noise from other tenants of the machine only ever makes a window or an
/// episode slower, for seconds at a time; wall-clock and CPU costs over
/// windows are taken at this percentile (rates at 1 - kNearBest).
inline constexpr double kNearBest = 0.1;

/// Interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// A deterministic, seed-dependent stream of 4 KB chunks. Chunk i starts
/// with its own index (so a duplicate or reordered chunk never matches)
/// followed by one of 16 seeded pattern blocks.
class ChunkStream {
 public:
  static constexpr std::size_t kChunk = 4096;
  explicit ChunkStream(std::uint64_t seed);

  Bytes chunk(std::uint64_t i) const;

  /// Checks the next delivered bytes against the stream; returns false on
  /// the first mismatch. `delivered()` counts verified bytes.
  bool verify(BytesView data);
  std::uint64_t delivered() const { return offset_; }

 private:
  std::vector<Bytes> blocks_;
  std::uint64_t offset_ = 0;
  std::uint64_t cached_index_ = ~0ull;
  Bytes cached_;
};

/// 128-byte RPC arguments for call `i` of generator `client`: the call's
/// identity followed by a seeded pattern.
Bytes rpc_args(std::uint64_t seed, std::uint64_t client, std::uint64_t i);

// ------------------------------------------------------------- tracing

/// The boundaries the benchmark crosses. `run` is a run_until slice of the
/// driver or simulator; `user` is a user callback (delivery, reply,
/// generator tick); the rest are calls into one layer's public API.
enum class SpanKind : std::uint8_t { kRun, kUser, kWrite, kCall, kSend, kCount };

/// In-memory span recorder. Each span has a name, start, end and parent.
/// Self time (duration minus child spans) is totalled per kind as spans
/// close; the first `kMaxKept` spans are kept for the Chrome trace file.
class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 100'000;

  explicit Tracer(bool on) : on_(on), origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }
  /// Switches recording between phases (never inside an open span).
  void set_on(bool on) { on_ = on; }
  void begin(SpanKind k);
  void end();

  /// Total self time (ns) and span count of one kind.
  double self_ns(SpanKind k) const { return self_ns_[static_cast<int>(k)]; }
  std::uint64_t count(SpanKind k) const { return count_[static_cast<int>(k)]; }
  std::uint64_t spans() const { return total_spans_; }

  /// Writes the kept spans as Chrome trace-event JSON (Perfetto loads it).
  bool write_chrome(const std::string& path) const;

 private:
  struct Kept {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    SpanKind kind;
  };
  struct Open {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept;  ///< index into kept_, or -1
    SpanKind kind;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool on_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  double self_ns_[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t count_[static_cast<int>(SpanKind::kCount)] = {};
  std::uint64_t total_spans_ = 0;
};

/// RAII span; free when the tracer is off.
class Span {
 public:
  Span(Tracer& t, SpanKind k) : t_(t.on() ? &t : nullptr) {
    if (t_ != nullptr) t_->begin(k);
  }
  ~Span() {
    if (t_ != nullptr) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Span-derived per-layer metrics shared by every workload, plus the
/// trace file. `ops` normalises the run and user self times.
void report_spans(const Tracer& t, const Options& o, Report& r, double ops);

}  // namespace perfbench
