// Tests for src/telemetry: the metrics registry and histogram, the
// per-stream guarantee ledger (the §2.3 verdicts, including the
// statistical boundary, by hand and end to end), the exporters (JSON
// lines, Chrome trace events), the bounded sim::Trace ring, and collector
// consistency against layer stats.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.h"
#include "telemetry/collect.h"
#include "telemetry/export.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "test_helpers.h"
#include "workload/workload.h"

namespace dash::telemetry {
namespace {

using dash::testing::st_world;
using dash::testing::loose_request;

// ------------------------------------------------- minimal JSON validator

/// Recursive-descent check that `s` is one well-formed JSON value.
class JsonValidator {
 public:
  static bool valid(std::string_view s) {
    JsonValidator v(s);
    v.skip();
    if (!v.value()) return false;
    v.skip();
    return v.pos_ == s.size();
  }

 private:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  void skip() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool value() {
    skip();
    if (eof()) return false;
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;
    skip();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip();
      if (!string()) return false;
      skip();
      if (eof() || s_[pos_++] != ':') return false;
      if (!value()) return false;
      skip();
      if (eof()) return false;
      const char c = s_[pos_++];
      if (c == '}') return true;
      if (c != ',') return false;
    }
  }

  bool array() {
    ++pos_;
    skip();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip();
      if (eof()) return false;
      const char c = s_[pos_++];
      if (c == ']') return true;
      if (c != ',') return false;
    }
  }

  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos_;
    while (!eof()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return false;
        ++pos_;
      }
    }
    return false;
  }

  bool number() {
    bool digit = false;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() &&
           (std::isdigit(static_cast<unsigned char>(peek())) != 0 || peek() == '.' ||
            peek() == 'e' || peek() == 'E' || peek() == '+' || peek() == '-')) {
      if (std::isdigit(static_cast<unsigned char>(peek())) != 0) digit = true;
      ++pos_;
    }
    return digit;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator::valid(R"({"a":[1,2.5e-3,"x\"y"],"b":null})"));
  EXPECT_TRUE(JsonValidator::valid("[]"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a":})"));
  EXPECT_FALSE(JsonValidator::valid("[1,2"));
  EXPECT_FALSE(JsonValidator::valid("{} extra"));
}

// --------------------------------------------------- histogram + registry

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(3), 4u);
  EXPECT_EQ(Histogram::bucket_hi(3), 8u);
  // Every bucket's range is self-consistent with bucket_of.
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
  }
}

TEST(Histogram, ObserveAndQuantiles) {
  Histogram h;
  for (std::uint64_t v : {100u, 200u, 300u, 400u, 10'000u}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 10'000u);
  EXPECT_DOUBLE_EQ(h.mean(), 2200.0);
  // Quantiles are clamped to the observed range and non-decreasing in p.
  EXPECT_GE(h.quantile(0.0), 100.0);
  EXPECT_LE(h.quantile(1.0), 10'000.0);
  double prev = 0.0;
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double q = h.quantile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(Histogram, SingleValueQuantileIsExact) {
  Histogram h;
  h.observe(1000);
  EXPECT_DOUBLE_EQ(h.p50(), 1000.0);
  EXPECT_DOUBLE_EQ(h.p99(), 1000.0);
}

TEST(MetricsRegistry, StableHandlesAndLookup) {
  MetricsRegistry m;
  Counter& c = m.counter("a.b.c");
  c.add(3);
  // Creating more metrics must not invalidate the cached handle.
  for (int i = 0; i < 100; ++i) m.counter("x." + std::to_string(i));
  c.add();
  EXPECT_EQ(m.counter_value("a.b.c"), 4u);
  EXPECT_EQ(m.counter_value("missing"), 0u);
  m.gauge("g").set(2.5);
  m.histogram("h").observe(7);
  EXPECT_EQ(m.size(), 103u);
}

// ------------------------------------------------------- guarantee ledger

/// A port watched by a GuaranteeLedger account, driven by hand-delivered
/// messages on a manual clock — the rig for checking the verdict delivery
/// by delivery.
struct WatchedPort {
  Time clock = 0;
  rms::Port port;
  GuaranteeLedger ledger;
  static constexpr std::uint64_t kId = 1;

  explicit WatchedPort(const rms::Params& params) {
    ledger.open(kId, "s", params, 1, 2);
    ledger.watch(port, kId, [this] { return clock; });
  }

  void deliver(std::size_t bytes, Time delay) {
    rms::Message m;
    m.data = patterned_bytes(bytes, 0);
    m.sent_at = clock;
    clock += delay;
    port.deliver(std::move(m), clock);
  }

  const StreamAccount& account() { return *ledger.find(kId); }
  bool holds() { return account().guarantee_holds(); }
};

rms::Params bounded_params(rms::BoundType type, double delay_probability = 0.9) {
  rms::Params p;
  p.capacity = 4096;
  p.max_message_size = 512;
  p.delay.type = type;
  p.delay.a = msec(10);
  p.delay.b_per_byte = 0;
  p.statistical.delay_probability = delay_probability;
  p.bit_error_rate = 1.0;
  return p;
}

TEST(GuaranteeLedger, StatisticalHoldsExactlyAtBoundary) {
  // delay_probability 0.9 allows a miss fraction of exactly 0.1: 1 miss in
  // 10 deliveries sits on the boundary and must still hold. One more miss
  // tips the verdict to VIOLATED.
  WatchedPort w(bounded_params(rms::BoundType::kStatistical, 0.9));
  for (int i = 0; i < 9; ++i) w.deliver(100, msec(1));
  w.deliver(100, msec(20));  // the allowed miss
  EXPECT_EQ(w.account().misses, 1u);
  EXPECT_DOUBLE_EQ(w.account().miss_fraction(), 0.1);
  EXPECT_TRUE(w.holds());

  w.deliver(100, msec(20));  // 2 misses in 11 > 0.1
  EXPECT_FALSE(w.holds());
  EXPECT_EQ(w.ledger.violations(), 1u);
}

TEST(GuaranteeLedger, DelayExactlyAtBoundIsNotAMiss) {
  // The bound is delay <= a + b*size; equality honors it.
  WatchedPort w(bounded_params(rms::BoundType::kDeterministic));
  w.deliver(100, msec(10));
  EXPECT_EQ(w.account().misses, 0u);
  EXPECT_TRUE(w.holds());
  w.deliver(100, msec(10) + 1);
  EXPECT_FALSE(w.holds());
}

TEST(GuaranteeLedger, DeterministicZeroDeliveriesHolds) {
  WatchedPort w(bounded_params(rms::BoundType::kDeterministic));
  EXPECT_TRUE(w.holds());
  EXPECT_EQ(w.ledger.violations(), 0u);
}

TEST(GuaranteeLedger, BestEffortAlwaysHolds) {
  WatchedPort w(bounded_params(rms::BoundType::kBestEffort));
  for (int i = 0; i < 5; ++i) w.deliver(100, sec(1));  // every delivery late
  EXPECT_EQ(w.account().misses, 5u);
  EXPECT_TRUE(w.holds());
}

TEST(GuaranteeLedger, MeasuresAgainstTheBound) {
  auto world = st_world(2);
  rms::Port inbox;
  world.node(2).ports.bind(50, &inbox);
  auto stream = world.node(1).st->create(loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());

  GuaranteeLedger ledger;
  ledger.open(1, "s", stream.value()->params(), 1, 2);
  int passthrough = 0;
  ledger.watch(inbox, 1, [&] { return world.sim.now(); },
               [&](rms::Message) { ++passthrough; });

  for (int i = 0; i < 20; ++i) {
    world.sim.after(msec(5 * i), [&] {
      rms::Message m;
      m.data = patterned_bytes(200);
      (void)stream.value()->send(std::move(m));
    });
  }
  world.sim.run();

  const StreamAccount& a = *ledger.find(1);
  EXPECT_EQ(a.delivered, 20u);
  EXPECT_EQ(passthrough, 20);
  EXPECT_EQ(a.misses, 0u);  // idle LAN: bound easily met
  EXPECT_TRUE(a.guarantee_holds());
  EXPECT_GT(a.delay_ns.mean(), 0.0);
  EXPECT_GE(static_cast<double>(a.delay_ns.max()), a.delay_ns.p99());
}

TEST(GuaranteeLedger, StatisticalStreamHonorsItsProbabilityEndToEnd) {
  // The §2.3 statistical contract verified empirically: a voice stream on
  // a busy segment must miss its bound no more often than promised.
  auto world = st_world(2);
  rms::Port inbox;
  world.node(2).ports.bind(70, &inbox);
  auto stream =
      world.node(1).st->create(workload::voice_request(msec(40)), {2, 70});
  ASSERT_TRUE(stream.ok());
  GuaranteeLedger ledger;
  ledger.open(1, "voice", stream.value()->params(), 1, 2);
  ledger.watch(inbox, 1, [&] { return world.sim.now(); });

  workload::PacedSource voice(world.sim, workload::kVoiceFrameInterval,
                              workload::kVoiceFrameBytes, [&](Bytes f) {
                                rms::Message m;
                                m.data = std::move(f);
                                (void)stream.value()->send(std::move(m));
                              });
  voice.start();
  world.sim.run_until(sec(10));
  voice.stop();
  world.sim.run_for(msec(200));

  const StreamAccount& a = *ledger.find(1);
  EXPECT_GE(a.delivered, 490u);
  EXPECT_TRUE(a.guarantee_holds()) << "miss fraction " << a.miss_fraction();
}

TEST(GuaranteeLedger, CapacityAndErrorRateAccounting) {
  GuaranteeLedger ledger;
  rms::Params p = bounded_params(rms::BoundType::kBestEffort);
  p.capacity = 1000;
  p.bit_error_rate = 0.5;
  ledger.open(7, "acct", p, 1, 2);

  ledger.on_send(7, 400);
  ledger.on_send(7, 400);  // 800 outstanding = peak
  ledger.on_delivery(7, msec(1), 400);
  ledger.on_send(7, 100);  // 500 outstanding
  const StreamAccount* a = ledger.find(7);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->sent, 3u);
  EXPECT_EQ(a->delivered, 1u);
  EXPECT_EQ(a->max_outstanding, 800u);
  EXPECT_DOUBLE_EQ(a->capacity_utilization(), 0.8);
  // 2 of 3 sends undelivered: error rate 2/3 exceeds the contracted 0.5.
  EXPECT_NEAR(a->observed_error_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(a->ber_holds());
  ledger.on_delivery(7, msec(1), 400);
  ledger.on_delivery(7, msec(1), 100);
  EXPECT_DOUBLE_EQ(ledger.find(7)->observed_error_rate(), 0.0);
  EXPECT_TRUE(ledger.find(7)->ber_holds());
}

TEST(GuaranteeLedger, WatchWrapsPortHandler) {
  GuaranteeLedger ledger;
  ledger.open(3, "watched", bounded_params(rms::BoundType::kBestEffort), 1, 2);
  rms::Port port;
  Time clock = msec(5);
  int forwarded = 0;
  ledger.watch(port, 3, [&clock] { return clock; },
               [&forwarded](rms::Message) { ++forwarded; });

  rms::Message m;
  m.data = patterned_bytes(64, 0);
  m.sent_at = msec(1);
  port.deliver(std::move(m), clock);
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(ledger.find(3)->delivered, 1u);
  EXPECT_EQ(ledger.find(3)->bytes_delivered, 64u);
}

TEST(GuaranteeLedger, ReportListsEveryStream) {
  GuaranteeLedger ledger;
  ledger.open(1, "alpha", bounded_params(rms::BoundType::kDeterministic), 1, 2);
  ledger.open(2, "beta", bounded_params(rms::BoundType::kStatistical), 1, 3);
  const std::string r = ledger.report();
  EXPECT_NE(r.find("alpha"), std::string::npos);
  EXPECT_NE(r.find("beta"), std::string::npos);
  EXPECT_NE(r.find("deterministic"), std::string::npos);
}

// -------------------------------------------------------------- exporters

TEST(Export, JsonlEveryLineIsValidJson) {
  MetricsRegistry m;
  m.counter("net.eth.sent").set(42);
  m.gauge("netrms.eth.utilization").set(0.375);
  Histogram& h = m.histogram("st.1.delivery_ns");
  for (std::uint64_t v = 1; v <= 1000; v += 37) h.observe(v);

  GuaranteeLedger ledger;
  ledger.open(1, "quoted \"name\"", bounded_params(rms::BoundType::kStatistical),
              1, 2);
  ledger.on_send(1, 100);
  ledger.on_delivery(1, msec(2), 100);

  for (const std::string& doc : {to_jsonl(m), to_jsonl(ledger)}) {
    ASSERT_FALSE(doc.empty());
    std::size_t start = 0;
    int lines = 0;
    while (start < doc.size()) {
      std::size_t end = doc.find('\n', start);
      if (end == std::string::npos) end = doc.size();
      const std::string_view line(doc.data() + start, end - start);
      EXPECT_TRUE(JsonValidator::valid(line)) << "bad JSON line: " << line;
      ++lines;
      start = end + 1;
    }
    EXPECT_GT(lines, 0);
  }
}

TEST(Export, ReportMentionsEveryMetric) {
  MetricsRegistry m;
  m.counter("net.eth.sent").set(7);
  m.gauge("netrms.eth.headroom").set(1.5);
  m.histogram("st.1.delivery_ns").observe(123);
  const std::string r = report(m);
  EXPECT_NE(r.find("net.eth.sent"), std::string::npos);
  EXPECT_NE(r.find("netrms.eth.headroom"), std::string::npos);
  EXPECT_NE(r.find("st.1.delivery_ns"), std::string::npos);
}

/// Extracts every `"ts":<number>` in order of appearance.
std::vector<double> extract_ts(const std::string& json) {
  std::vector<double> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

TEST(Export, ChromeTraceValidAndMonotone) {
  sim::Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.record(usec(i), i % 2 == 0 ? "net" : "st", "event " + std::to_string(i));
  }
  const std::string doc = to_chrome_trace(trace);
  EXPECT_TRUE(JsonValidator::valid(doc)) << doc;
  const std::vector<double> ts = extract_ts(doc);
  ASSERT_EQ(ts.size(), 20u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GE(ts[i], ts[i - 1]);
}

TEST(Export, ChromeTraceMonotoneAfterRingWrap) {
  // A wrapped ring stores records out of order; the exporter must still
  // emit them oldest-first.
  sim::Trace trace(4);
  for (int i = 1; i <= 10; ++i) trace.record(msec(i), "cat", "e");
  const std::string doc = to_chrome_trace(trace);
  EXPECT_TRUE(JsonValidator::valid(doc));
  const std::vector<double> ts = extract_ts(doc);
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts.front(), 7000.0);  // ms 7 in microseconds
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_GT(ts[i], ts[i - 1]);
}

std::ptrdiff_t open_fds() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                       std::filesystem::directory_iterator());
}

TEST(Export, WriteFileReportsShortWriteAndClosesTheFile) {
  // /dev/full fails every write with ENOSPC: the write comes up short, and
  // the file must still be closed rather than leaked.
  if (!std::filesystem::exists("/dev/full") ||
      !std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "/dev/full or /proc/self/fd unavailable";
  }
  const std::ptrdiff_t before = open_fds();
  EXPECT_FALSE(write_file("/dev/full", std::string(64 * 1024, 'x')).ok());
  EXPECT_EQ(open_fds(), before);
}

// --------------------------------------------------------- trace ring

TEST(TraceRing, OverwritesOldestAndCounts) {
  sim::Trace trace(4);
  for (int i = 1; i <= 6; ++i) trace.record(i, "c", std::to_string(i));
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.dropped(), 2u);
  const auto chrono = trace.chronological();
  ASSERT_EQ(chrono.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chrono[i].time, static_cast<Time>(i + 3));
    EXPECT_EQ(chrono[i].detail, std::to_string(i + 3));
  }
}

TEST(TraceRing, ShrinkKeepsNewest) {
  sim::Trace trace;  // unbounded
  for (int i = 1; i <= 6; ++i) trace.record(i, "c", std::to_string(i));
  trace.set_capacity(3);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 3u);
  const auto chrono = trace.chronological();
  EXPECT_EQ(chrono.front().time, 4);
  EXPECT_EQ(chrono.back().time, 6);
  // Growing back to unbounded keeps recording without loss.
  trace.set_capacity(0);
  trace.record(7, "c", "7");
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 3u);
}

TEST(TraceRing, ClearResetsRingState) {
  sim::Trace trace(2);
  for (int i = 1; i <= 5; ++i) trace.record(i, "c", "x");
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  trace.record(9, "c", "y");
  EXPECT_EQ(trace.chronological().front().time, 9);
}

// ----------------------------------------------------------- collectors

TEST(Collect, StCountersMatchLayerStats) {
  MetricsRegistry m;  // declared first: outlives the world that points at it
  auto world = st_world(2);
  world.st(1).set_metrics(&m);

  rms::Port port;
  world.node(2).ports.bind(50, &port);
  auto stream = world.st(1).create(loose_request(), {2, 50});
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 5; ++i) {
    rms::Message msg;
    msg.data = patterned_bytes(200, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(stream.value()->send(std::move(msg)).ok());
  }
  world.sim.run_until(sec(1));
  ASSERT_EQ(port.delivered(), 5u);

  collect_st(m, world.st(1));
  collect_st(m, world.st(2));
  const st::SubtransportLayer::Stats& s1 = world.st(1).stats();
  const st::SubtransportLayer::Stats& s2 = world.st(2).stats();
  EXPECT_EQ(m.counter_value("st.1.messages_sent"), s1.messages_sent);
  EXPECT_EQ(m.counter_value("st.1.st_rms_created"), s1.st_rms_created);
  EXPECT_EQ(m.counter_value("st.2.messages_delivered"), s2.messages_delivered);
  EXPECT_EQ(s1.messages_sent, 5u);
  EXPECT_EQ(s2.messages_delivered, 5u);

  collect_fabric(m, *world.fabric, "ethernet");
  EXPECT_EQ(m.counter_value("netrms.ethernet.messages_delivered"),
            world.fabric->stats().messages_delivered);
  world.st(1).set_metrics(nullptr);
}

TEST(Collect, DeliveryHistogramCountsDeliveries) {
  MetricsRegistry m;
  auto world = st_world(2);
  world.st(2).set_metrics(&m);  // the *receiving* ST observes delivery delay

  rms::Port port;
  world.node(2).ports.bind(51, &port);
  auto stream = world.st(1).create(loose_request(), {2, 51});
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 8; ++i) {
    rms::Message msg;
    msg.data = patterned_bytes(100, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(stream.value()->send(std::move(msg)).ok());
  }
  world.sim.run_until(sec(1));
  ASSERT_EQ(port.delivered(), 8u);

  const Histogram& h = m.histogram("st.2.delivery_ns");
  EXPECT_EQ(h.count(), 8u);
  EXPECT_GT(h.min(), 0u);
  world.st(2).set_metrics(nullptr);
}

}  // namespace
}  // namespace dash::telemetry
