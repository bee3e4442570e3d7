#include "telemetry/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "rms/params.h"

namespace dash::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

namespace {

std::string histogram_json(const std::string& name, const Histogram& h) {
  std::string out = "{\"type\":\"histogram\",\"name\":\"" + json_escape(name) +
                    "\",\"count\":" + std::to_string(h.count()) +
                    ",\"min\":" + std::to_string(h.min()) +
                    ",\"max\":" + std::to_string(h.max()) +
                    ",\"mean\":" + json_number(h.mean()) +
                    ",\"p50\":" + json_number(h.p50()) +
                    ",\"p95\":" + json_number(h.p95()) +
                    ",\"p99\":" + json_number(h.p99()) + ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(b) + ',' + std::to_string(h.bucket(b)) + ']';
  }
  out += "]}";
  return out;
}

}  // namespace

std::string to_jsonl(const MetricsRegistry& m) {
  std::string out;
  for (const auto& [name, c] : m.counters()) {
    out += "{\"type\":\"counter\",\"name\":\"" + json_escape(name) +
           "\",\"value\":" + std::to_string(c.value()) + "}\n";
  }
  for (const auto& [name, g] : m.gauges()) {
    out += "{\"type\":\"gauge\",\"name\":\"" + json_escape(name) +
           "\",\"value\":" + json_number(g.value()) + "}\n";
  }
  for (const auto& [name, h] : m.histograms()) {
    out += histogram_json(name, h) + "\n";
  }
  return out;
}

std::string to_jsonl(const GuaranteeLedger& l) {
  std::string out;
  for (const auto& [id, a] : l.accounts()) {
    out += "{\"type\":\"stream\",\"id\":" + std::to_string(a.id) +
           ",\"name\":\"" + json_escape(a.name) +
           "\",\"src\":" + std::to_string(a.src) +
           ",\"dst\":" + std::to_string(a.dst) +
           ",\"bound_type\":\"" + rms::bound_type_name(a.params.delay.type) +
           "\",\"delay_a_ns\":" +
           (a.params.delay.a == kTimeNever ? "null" : std::to_string(a.params.delay.a)) +
           ",\"delay_b_per_byte_ns\":" + std::to_string(a.params.delay.b_per_byte) +
           ",\"capacity\":" + std::to_string(a.params.capacity) +
           ",\"contract_ber\":" + json_number(a.params.bit_error_rate) +
           ",\"sent\":" + std::to_string(a.sent) +
           ",\"delivered\":" + std::to_string(a.delivered) +
           ",\"misses\":" + std::to_string(a.misses) +
           ",\"miss_fraction\":" + json_number(a.miss_fraction()) +
           ",\"capacity_utilization\":" + json_number(a.capacity_utilization()) +
           ",\"observed_error_rate\":" + json_number(a.observed_error_rate()) +
           ",\"delay_p99_ns\":" + json_number(a.delay_ns.p99()) +
           ",\"guarantee_holds\":" + (a.guarantee_holds() ? "true" : "false") + "}\n";
  }
  return out;
}

std::string report(const MetricsRegistry& m) {
  std::string out;
  char line[192];
  if (!m.counters().empty()) {
    out += "counters:\n";
    for (const auto& [name, c] : m.counters()) {
      std::snprintf(line, sizeof(line), "  %-44s %12" PRIu64 "\n", name.c_str(),
                    c.value());
      out += line;
    }
  }
  if (!m.gauges().empty()) {
    out += "gauges:\n";
    for (const auto& [name, g] : m.gauges()) {
      std::snprintf(line, sizeof(line), "  %-44s %12.4g\n", name.c_str(), g.value());
      out += line;
    }
  }
  if (!m.histograms().empty()) {
    out += "histograms:                                     "
           "       count      p50 ms      p95 ms      p99 ms      max ms\n";
    for (const auto& [name, h] : m.histograms()) {
      std::snprintf(line, sizeof(line),
                    "  %-44s %12" PRIu64 " %11.3f %11.3f %11.3f %11.3f\n",
                    name.c_str(), h.count(), h.p50() / 1e6, h.p95() / 1e6,
                    h.p99() / 1e6, static_cast<double>(h.max()) / 1e6);
      out += line;
    }
  }
  return out;
}

std::string to_chrome_trace(const sim::Trace& t) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& r : t.chronological()) {
    if (!first) out += ',';
    first = false;
    // Instant events, one timeline track per category (tid by category
    // hash would scatter; Perfetto groups by name of the track via "tid"
    // left constant and the category carried in "cat").
    out += "{\"name\":\"" + json_escape(r.detail) + "\",\"cat\":\"" +
           json_escape(r.category) + "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,"
           "\"ts\":" + json_number(static_cast<double>(r.time) / 1e3) + "}";
  }
  out += "]}";
  return out;
}

Status write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return make_error(Errc::kInternal, "cannot open " + path + " for writing");
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  // Close unconditionally: a short write must not leak the descriptor.
  const bool closed = std::fclose(f) == 0;
  if (n != content.size() || !closed) {
    return make_error(Errc::kInternal, "short write to " + path);
  }
  return {};
}

}  // namespace dash::telemetry
