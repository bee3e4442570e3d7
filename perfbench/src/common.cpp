#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "telemetry/export.h"
#include "util/alloc_count.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks that every listed metric is
// printed with its unit.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"goodput_MBps", "MB/s"},
    {"op_p50_us", "us"},        {"op_p90_us", "us"},
    {"peak_rss_MB", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"transport.write_us_per_MB", "us/MB"},
    {"transport.retransmissions", "count"},
    {"transport.write_blocked", "count"},
    {"transport.acks_per_MB", "1/MB"},
    {"rkom.call_us", "us"},
    {"rkom.retransmissions", "count"},
    {"rkom.max_cps", "1/s"},
    {"st.send_us", "us"},
    {"st.components_per_packet", "count"},
    {"st.fragments_per_msg", "count"},
    {"st.partials_discarded", "count"},
    {"st.control_messages", "count"},
    {"netrms.messages_per_op", "count"},
    {"netrms.drops", "count"},
    {"net.udp.dgrams_per_sendmmsg", "count"},
    {"net.udp.dgrams_per_recvmmsg", "count"},
    {"net.udp.send_eagain", "count"},
    {"net.udp.codec_errors", "count"},
    {"net.udp.encode_ns_128B", "ns"},
    {"net.udp.encode_ns_1KB", "ns"},
    {"net.udp.decode_ns_128B", "ns"},
    {"net.udp.decode_ns_1KB", "ns"},
    {"util.crc32_MBps", "MB/s"},
    {"net.ethernet.frame_ns", "ns"},
    {"net.ethernet.drops", "count"},
    {"rt.timer_wakeup_frac", "frac"},
    {"rt.events_per_poll", "count"},
    {"rt.max_lateness_us", "us"},
    {"sim.events_per_op", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.heap_task_frac", "frac"},
    {"sim.peak_pending", "count"},
    {"sim.cpu_busy_frac", "frac"},
    {"sim.speed", "s/s"},
    {"lan.voice_ontime_frac", "frac"},
    {"lan.rpc_p99_ms", "ms"},
    {"lan.bulk_MBps", "MB/s"},
    {"proc.cpu_us_per_op", "us"},
    {"proc.cpu_frac", "frac"},
    {"proc.sys_frac", "frac"},
    {"proc.allocs_per_op", "count"},
    {"proc.alloc_bytes_per_op", "B"},
    {"proc.peak_rss_MB", "MB"},
    {"gen.lag_p99_us", "us"},
    {"trace.overhead_frac", "frac"},
    {"trace.run_self_us_per_op", "us"},
    {"trace.user_us_per_op", "us"},
    {"trace.spans", "count"},
};

constexpr const char* kSpanNames[] = {"run_until", "user", "write", "call", "send"};
constexpr const char* kSpanLayers[] = {"rt/sim", "user", "transport", "rkom", "st"};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

// ------------------------------------------------------------- Report

Report::Report(bool trace) : trace_(trace) {
  // A traced run starts every layer metric at 0: a layer the workload does
  // not exercise reads as no work done.
  if (trace) {
    for (const auto& d : kPerLayer) metrics_.push_back({d.name, d.unit, 0.0, true});
  } else {
    for (const auto& d : kEndToEnd) metrics_.push_back({d.name, d.unit, 0.0, false});
  }
}

void Report::set(const std::string& name, double value) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0;
      }
      m.value = value;
      m.set = true;
      return;
    }
  }
  std::fprintf(stderr, "internal error: unknown metric %s\n", name.c_str());
  std::abort();
}

void Report::fail_ops(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  notes_.push_back("FAILED " + std::to_string(n) + " operation(s): " + why);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) {
    notes_.push_back("check passed: " + what);
    return;
  }
  correct_ = false;
  ++failed_;
  notes_.push_back("CHECK FAILED: " + what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!m.set) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n",
                   m.name.c_str());
      std::abort();
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- process

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcSample ProcSample::now() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.wall_s = wall_seconds();
  s.user_s = tv_seconds(ru.ru_utime);
  s.sys_s = tv_seconds(ru.ru_stime);
  s.allocs = dash::alloc_count::allocations();
  s.alloc_bytes = dash::alloc_count::bytes();
  return s;
}

ProcDelta::ProcDelta(const ProcSample& a, const ProcSample& b)
    : wall_s(b.wall_s - a.wall_s),
      user_s(b.user_s - a.user_s),
      sys_s(b.sys_s - a.sys_s),
      allocs(static_cast<double>(b.allocs - a.allocs)),
      alloc_bytes(static_cast<double>(b.alloc_bytes - a.alloc_bytes)) {}

void ProcDelta::report(Report& r, double ops) const {
  const double w = std::max(wall_s, 1e-9);
  const double n = std::max(ops, 1.0);
  r.layer("proc.cpu_frac", cpu_s() / w);
  r.layer("proc.sys_frac", sys_s / w);
  r.layer("proc.allocs_per_op", allocs / n);
  r.layer("proc.alloc_bytes_per_op", alloc_bytes / n);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the parent's peak
  // across fork+exec into ru_maxrss, so a launcher's footprint would leak
  // into this process's figure.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ------------------------------------------------------------- payloads

ChunkStream::ChunkStream(std::uint64_t seed) {
  for (std::uint64_t b = 0; b < 16; ++b) {
    blocks_.push_back(dash::patterned_bytes(kChunk, seed * 1'000'003 + b));
  }
}

Bytes ChunkStream::chunk(std::uint64_t i) const {
  Bytes c = blocks_[(i * 7 + 3) % blocks_.size()];
  std::memcpy(c.data(), &i, sizeof i);
  return c;
}

bool ChunkStream::verify(BytesView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t index = offset_ / kChunk;
    const std::size_t at = offset_ % kChunk;
    if (index != cached_index_) {
      cached_ = chunk(index);
      cached_index_ = index;
    }
    const std::size_t n = std::min(kChunk - at, data.size() - done);
    if (std::memcmp(cached_.data() + at, data.data() + done, n) != 0) return false;
    done += n;
    offset_ += n;
  }
  return true;
}

Bytes rpc_args(std::uint64_t seed, std::uint64_t client, std::uint64_t i) {
  Bytes a = dash::patterned_bytes(128, seed ^ (client << 40) ^ (i * 0x9E37));
  std::memcpy(a.data(), &i, sizeof i);
  std::memcpy(a.data() + 8, &client, sizeof client);
  return a;
}

// ------------------------------------------------------------- tracing

void Tracer::begin(SpanKind k) {
  Open o{now_ns(), 0, -1, k};
  if (kept_.size() < kMaxKept) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().kept;
    o.kept = static_cast<std::int32_t>(kept_.size());
    kept_.push_back({o.start_ns, -1, parent, k});
  }
  stack_.push_back(o);
}

void Tracer::end() {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - o.start_ns;
  const int k = static_cast<int>(o.kind);
  self_ns_[k] += static_cast<double>(dur - o.child_ns);
  ++count_[k];
  ++total_spans_;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept >= 0) kept_[static_cast<std::size_t>(o.kept)].end_ns = end;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char line[256];
  bool first = true;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& s = kept_[i];
    if (s.end_ns < 0) continue;  // still open when the run ended
    const int k = static_cast<int>(s.kind);
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  first ? "" : ",\n", kSpanNames[k], kSpanLayers[k],
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out += line;
    first = false;
  }
  out += "\n]}\n";
  return dash::telemetry::write_file(path, out).ok();
}

void report_spans(const Tracer& t, const Options& o, Report& r, double ops) {
  const double n = std::max(ops, 1.0);
  r.layer("trace.run_self_us_per_op", t.self_ns(SpanKind::kRun) / n / 1e3);
  r.layer("trace.user_us_per_op", t.self_ns(SpanKind::kUser) / n / 1e3);
  r.layer("trace.spans", static_cast<double>(t.spans()));
  if (!o.trace) return;
  const std::string path =
      o.out_dir + "/trace_" + o.workload + "_seed" + std::to_string(o.seed) + ".json";
  r.check(t.write_chrome(path), "span file written to " + path);
}

}  // namespace perfbench
