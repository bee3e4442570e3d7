// C4 (§4.2): network RMS caching.
//
// "This caching is motivated by two assumptions: 1) during a given time
// period a host will tend to communicate repeatedly with a small set of
// remote hosts; 2) it is slow and costly to create network RMS's."
//
// A client opens short sessions to the same peer (open, send one message,
// close). Sweep the gap between sessions against the cache idle timeout,
// and compare caching disabled. Reported: session open->first-delivery
// latency and network RMS created. Shape: warm sessions skip the network
// RMS setup cost entirely; once the gap exceeds the idle timeout (or with
// caching off) every session pays it again.
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct CacheResult {
  double first_session_ms;   // cold: pays control channel + data RMS setup
  double later_sessions_ms;  // warm (or cold again, if expired)
  std::uint64_t data_rms_created;
  std::uint64_t cache_hits;
};

rms::Request session_request() {
  rms::Params desired;
  desired.capacity = 8 * 1024;
  desired.max_message_size = 1024;
  desired.delay.type = rms::BoundType::kBestEffort;
  desired.delay.a = msec(50);
  desired.delay.b_per_byte = usec(10);
  desired.bit_error_rate = 1e-6;
  rms::Params acceptable = desired;
  acceptable.capacity = 1024;
  acceptable.delay.a = sec(10);
  acceptable.delay.b_per_byte = msec(1);
  acceptable.bit_error_rate = 1.0;
  return {desired, acceptable};
}

CacheResult run(Time session_gap, bool caching, Time idle_timeout,
                Time rms_setup_cost) {
  st::StConfig config;
  config.cache_idle_timeout = caching ? idle_timeout : 0;
  auto traits = net::ethernet_traits();
  traits.rms_setup_cost = rms_setup_cost;
  auto lan =
      node::ethernet_world(2, traits, 31, net::Discipline::kDeadline, {.st = config});

  rms::Port port;
  lan.node(2).ports.bind(70, &port);

  CacheResult out{};
  Samples later_ms;
  constexpr int kSessions = 10;
  for (int s = 0; s < kSessions; ++s) {
    const Time start = lan.sim.now();
    auto stream = lan.node(1).st->create(session_request(), {2, 70});
    rms::Message m;
    m.data = patterned_bytes(256, static_cast<std::uint64_t>(s));
    (void)stream.value()->send(std::move(m));
    // Wait for delivery.
    while (port.delivered() == static_cast<std::uint64_t>(s) && lan.sim.step()) {
    }
    const double ms = to_millis(port.last_delivery() - start);
    if (s == 0) {
      out.first_session_ms = ms;
    } else {
      later_ms.add(ms);
    }
    stream.value()->close();
    lan.sim.run_for(session_gap);
  }
  out.later_sessions_ms = later_ms.mean();
  out.data_rms_created = lan.node(1).st->stats().net_rms_created;
  out.cache_hits = lan.node(1).st->stats().cache_hits;
  return out;
}

}  // namespace

int main() {
  title("C4", "network RMS caching: session open -> first delivery latency");

  const Time setup = msec(20);  // a costly network RMS creation protocol
  const Time idle_timeout = sec(2);

  std::printf("network RMS setup cost: %s, cache idle timeout: %s\n\n",
              format_time(setup).c_str(), format_time(idle_timeout).c_str());
  std::printf("%-26s %12s %14s %12s %10s\n", "configuration", "cold ms",
              "later mean ms", "data RMS", "cache hits");

  BenchJson json("c4_rms_caching");
  struct Case {
    const char* name;
    Time gap;
    bool caching;
  };
  for (const Case& c : {Case{"cached, gap 100 ms", msec(100), true},
                        Case{"cached, gap 1 s", sec(1), true},
                        Case{"cached, gap 5 s (expires)", sec(5), true},
                        Case{"caching disabled", msec(100), false}}) {
    const CacheResult r = run(c.gap, c.caching, idle_timeout, setup);
    std::printf("%-26s %12.2f %14.2f %12llu %10llu\n", c.name, r.first_session_ms,
                r.later_sessions_ms, static_cast<unsigned long long>(r.data_rms_created),
                static_cast<unsigned long long>(r.cache_hits));
    const std::map<std::string, std::string> params = {{"configuration", c.name}};
    json.record("cold_session_latency", r.first_session_ms, "ms", params);
    json.record("warm_session_latency", r.later_sessions_ms, "ms", params);
    json.record("net_rms_created", static_cast<double>(r.data_rms_created),
                "streams", params);
    json.record("cache_hits", static_cast<double>(r.cache_hits), "hits", params);
  }

  note("\nShape check: the cold session pays control-channel setup plus the");
  note("network RMS creation cost; warm sessions inside the idle timeout skip");
  note("both (latency drops to transit + processing, one data RMS total).");
  note("Gaps beyond the timeout — or caching off — pay setup every time.");
  return 0;
}
