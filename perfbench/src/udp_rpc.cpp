// udp_rpc: an RkomNode client on host 2 calls an echo operation on host 1
// over 127.0.0.1 (128 B args, 128 B replies, zero service time). Calls go
// out in an open loop at a fixed rate and are timed from when they were
// due, so a stall also delays the calls queued behind it. A traced run
// then steps the offered rate up to find the highest rate whose step keeps
// p99 within the limit with no failed call and no growing backlog.
#include <deque>
#include <memory>

#include "rkom/rkom.h"
#include "udp_world.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dash;

constexpr std::uint64_t kEcho = 7;
constexpr rms::HostId kServer = 1;
constexpr double kRate = 1000;          ///< calls/s in the fixed-rate phase
constexpr double kLimitUs = 20'000;     ///< p99 limit of a ramp step
constexpr double kCallBytes = 128 + 128;

struct RpcRig {
  workload::UdpLoopbackWorld world;
  rkom::RkomNode server{world.st(1), world.node(1).ports};
  rkom::RkomNode client{world.st(2), world.node(2).ports};
};

/// Outcomes of the calls issued in one phase or ramp step.
struct Calls {
  std::vector<double> latency_us;  ///< due -> reply
  std::vector<double> lag_us;      ///< due -> issued
  std::uint64_t issued = 0;
  std::uint64_t replied = 0;
  std::uint64_t failed = 0;
  bool resolved() const { return replied + failed == issued; }
};

/// Client state; the rig's callbacks point here, so it is declared before
/// (and outlives) the rig. Phases live in a deque so pointers stay valid.
struct Rpc {
  Tracer& tracer;
  std::uint64_t seed;
  std::uint64_t next_call = 0;
  std::deque<Calls> phases;
  std::unique_ptr<RpcRig> rig;

  Rpc(Tracer& t, std::uint64_t s) : tracer(t), seed(s) {}

  void issue(Calls& calls, Time due) {
    RpcRig& g = *rig;
    calls.lag_us.push_back(static_cast<double>(g.world.driver.now() - due) / 1e3);
    const std::uint64_t i = next_call++;
    ++calls.issued;
    Span span(tracer, SpanKind::kCall);
    g.client.call(kServer, kEcho, rpc_args(seed, 0, i),
                  [this, &calls, due, i](Result<Bytes> reply) {
                    Span user(tracer, SpanKind::kUser);
                    if (!reply.ok() || reply.value() != rpc_args(seed, 0, i)) {
                      ++calls.failed;
                      return;
                    }
                    ++calls.replied;
                    calls.latency_us.push_back(
                        static_cast<double>(rig->world.driver.now() - due) / 1e3);
                  });
  }

  /// Open-loop generator: call k is due at start + k / rate, until `end`.
  void generate(Calls& calls, double rate, Time start, Time end, std::uint64_t k) {
    const Time due = start + static_cast<Time>(static_cast<double>(k) * 1e9 / rate);
    if (due >= end) return;
    rig->world.sim.at(due, [this, &calls, rate, start, end, k, due] {
      Span span(tracer, SpanKind::kUser);
      issue(calls, due);
      generate(calls, rate, start, end, k + 1);
    });
  }

  /// Runs the driver in traced slices until the wall clock reaches `until`.
  void run_to(Time until) {
    auto& d = rig->world.driver;
    while (d.now() < until) {
      Span span(tracer, SpanKind::kRun);
      d.run_for(std::min<Time>(msec(10), until - d.now()));
    }
  }

  bool drain(Calls& calls, Time max_wall) {
    return rig->world.driver.run_until([&calls] { return calls.resolved(); }, max_wall);
  }
};

/// Builds the world and both RKOM nodes, then makes one warm-up call, which
/// also negotiates the four-stream RKOM channel. Returns the set-up wall
/// time, or a negative value on failure.
double set_up(Rpc& rpc) {
  const double t0 = wall_seconds();
  rpc.rig = std::make_unique<RpcRig>();
  rpc.rig->server.register_operation(
      kEcho, {[](BytesView args) { return Bytes(args.begin(), args.end()); }, 0});
  Calls& warm = rpc.phases.emplace_back();
  rpc.issue(warm, rpc.rig->world.driver.now());
  const bool ok = rpc.drain(warm, sec(10));
  return ok && warm.replied == 1 ? wall_seconds() - t0 : -1;
}

struct Phase {
  Calls* calls = nullptr;
  ProcDelta proc;
  double cpu_us_per_op = 0;  ///< near-best window
  double p90_us = 0;         ///< median over windows of the window's p90
  std::string windows;
  UdpSnap before;
  UdpSnap after;
  rkom::RkomNode::Stats client0, client1, server0, server1;
};

/// Offers `rate` calls/s for `seconds`, then waits for the stragglers.
Phase fixed_rate(Rpc& rpc, double rate, double seconds, Time offset) {
  RpcRig& g = *rpc.rig;
  Calls& calls = rpc.phases.emplace_back();
  const UdpSnap before = snap(g.world);
  const auto c0 = g.client.stats();
  const auto s0 = g.server.stats();
  const ProcSample p0 = ProcSample::now();
  const Time start = g.world.driver.now() + msec(1) + offset;
  const Time end = start + static_cast<Time>(seconds * 1e9);
  rpc.generate(calls, rate, start, end, 0);
  // CPU cost and tail latency in windows of about a second (>= 1000 calls).
  const int windows = std::max(4, static_cast<int>(seconds));
  std::vector<double> window_cpu_us, window_p90_us;
  ProcSample w0 = p0;
  std::uint64_t replied0 = 0;
  for (int k = 1; k <= windows; ++k) {
    rpc.run_to(start + (end - start) * k / windows);
    const ProcSample w1 = ProcSample::now();
    window_cpu_us.push_back((w1.cpu_s() - w0.cpu_s()) * 1e6 /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, calls.replied - replied0)));
    window_p90_us.push_back(percentile(
        std::vector<double>(calls.latency_us.begin() + static_cast<std::ptrdiff_t>(replied0),
                            calls.latency_us.end()),
        0.90));
    w0 = w1;
    replied0 = calls.replied;
  }
  rpc.drain(calls, sec(3));
  const ProcSample p1 = ProcSample::now();
  Phase ph;
  ph.calls = &calls;
  ph.proc = ProcDelta(p0, p1);
  // Other tenants of the machine only ever add CPU time (cache and
  // frequency effects), so CPU cost takes a near-best window; the tail
  // takes the median window, so one stalled second does not set it.
  ph.cpu_us_per_op = percentile(window_cpu_us, kNearBest);
  ph.p90_us = median(window_p90_us);
  ph.before = before;
  ph.after = snap(g.world);
  ph.client0 = c0;
  ph.client1 = g.client.stats();
  ph.server0 = s0;
  ph.server1 = g.server.stats();
  std::string w = "udp_rpc windows (cpu us/call, p90 us):";
  for (std::size_t i = 0; i < window_cpu_us.size(); ++i) {
    w += " " + std::to_string(static_cast<int>(window_cpu_us[i])) + "/" +
         std::to_string(static_cast<int>(window_p90_us[i]));
  }
  ph.windows = w;
  return ph;
}

/// Stepped ramp: the highest offered rate whose step has no failed call,
/// p99 within kLimitUs (an unanswered call counts as over the limit) and
/// no more than kLimitUs worth of calls outstanding when the step ends.
double max_rate(Rpc& rpc, bool tiny, Report& r) {
  const double rates[] = {1500, 2000, 2250, 2500, 2750, 3000, 3500, 4000};
  const double step_s = tiny ? 0.1 : 0.5;
  double best = 0;
  for (double rate : rates) {
    RpcRig& g = *rpc.rig;
    Calls& calls = rpc.phases.emplace_back();
    const Time start = g.world.driver.now() + msec(1);
    const Time end = start + static_cast<Time>(step_s * 1e9);
    rpc.generate(calls, rate, start, end, 0);
    rpc.run_to(end);
    const double backlog = static_cast<double>(calls.issued - calls.replied - calls.failed);
    rpc.drain(calls, msec(200));
    std::vector<double> lat = calls.latency_us;
    for (std::uint64_t i = calls.replied; i < calls.issued; ++i) lat.push_back(1e12);
    const double p99 = percentile(lat, 0.99);
    const bool pass = calls.failed == 0 && p99 <= kLimitUs &&
                      backlog <= rate * kLimitUs / 1e6;
    r.note("udp_rpc ramp " + std::to_string(static_cast<int>(rate)) + "/s: p99 " +
           std::to_string(p99) + " us, backlog " + std::to_string(backlog) +
           ", failed " + std::to_string(calls.failed) + (pass ? " pass" : " FAIL"));
    if (!pass) break;
    best = rate;
  }
  return best;
}

}  // namespace

void run_udp_rpc(const Options& o, Report& r) {
  Tracer tracer(false);
  // The first node pair is the measured one; the extra set-ups that only
  // time set-up again come after it.
  auto rpc = std::make_unique<Rpc>(tracer, o.seed);
  std::vector<double> setup_s = {set_up(*rpc)};
  r.attempt(1);
  if (setup_s[0] < 0) {
    r.check(false, "udp_rpc RKOM channel set-up and warm-up call");
    return;
  }
  // Memory once set up: what the run adds on top depends on how the host
  // schedules this process (received datagrams pile up while it waits).
  r.e2e("peak_rss_MB", peak_rss_mb());
  Rpc& rpc_ = *rpc;
  // The seed shifts the phase of the paced schedule within one period.
  const Time offset = static_cast<Time>((o.seed * 0x9E3779B97F4A7C15ull) % 1'000'000);

  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase plain = fixed_rate(rpc_, kRate, phase_s, offset);
  Phase traced = plain;
  if (o.trace) {
    tracer.set_on(true);
    traced = fixed_rate(rpc_, kRate, phase_s, offset);
    tracer.set_on(false);
  }

  // Correctness: every reply equals its args, and the server ran each call
  // exactly once (at-most-once with nothing lost).
  std::vector<const Calls*> measured = {plain.calls};
  if (o.trace) measured.push_back(traced.calls);
  std::uint64_t issued = 0, failed = 0, unresolved = 0;
  for (const Calls* c : measured) {
    issued += c->issued;
    failed += c->failed;
    unresolved += c->issued - c->replied - c->failed;
  }
  const auto& srv = rpc_.rig->server.stats();
  const auto& cli = rpc_.rig->client.stats();
  r.attempt(issued);
  r.fail_ops(failed, "udp_rpc calls failed (error, timeout or wrong reply)");
  r.fail_ops(unresolved, "udp_rpc calls never answered");
  r.check(failed == 0 && unresolved == 0, "udp_rpc every reply equals its args");
  r.check(srv.executions == cli.calls,
          "udp_rpc server executions (" + std::to_string(srv.executions) +
              ") equal calls issued (" + std::to_string(cli.calls) + ")");

  const Calls& pc = *plain.calls;
  const double ops = static_cast<double>(pc.replied);
  r.e2e("goodput_MBps", ops * kCallBytes / 1e6 / plain.proc.wall_s);
  r.e2e("op_p50_us", percentile(pc.latency_us, 0.50));
  r.e2e("op_p90_us", plain.p90_us);
  r.note(plain.windows);
  r.note("udp_rpc: " + std::to_string(pc.latency_us.size()) + " calls at " +
         std::to_string(static_cast<int>(kRate)) + "/s, p50 " +
         std::to_string(percentile(pc.latency_us, 0.5)) + " us, p99 " +
         std::to_string(percentile(pc.latency_us, 0.99)) + " us, generator lag p99 " +
         std::to_string(percentile(pc.lag_us, 0.99)) + " us");

  if (o.trace) {
    const Calls& tc = *traced.calls;
    const double tops = static_cast<double>(tc.replied);
    report_udp(traced.before, traced.after, tops, r);
    traced.proc.report(r, tops);
    r.layer("proc.cpu_us_per_op", plain.cpu_us_per_op);
    r.layer("rkom.call_us", ratio(tracer.self_ns(SpanKind::kCall) / 1e3,
                                  static_cast<double>(tracer.count(SpanKind::kCall))));
    r.layer("rkom.retransmissions",
            static_cast<double>(traced.client1.request_retransmissions -
                                traced.client0.request_retransmissions +
                                traced.server1.reply_retransmissions -
                                traced.server0.reply_retransmissions));
    r.layer("gen.lag_p99_us", percentile(tc.lag_us, 0.99));
    const double cpu_plain = plain.proc.cpu_s() / std::max(ops, 1.0);
    const double cpu_traced = traced.proc.cpu_s() / std::max(tops, 1.0);
    r.layer("trace.overhead_frac", ratio(cpu_traced, cpu_plain) - 1.0);
    report_spans(tracer, o, r, tops);
    r.layer("rkom.max_cps", max_rate(rpc_, o.tiny, r));
    return;
  }

  // More set-ups, timed only, once the measured pair is gone.
  rpc.reset();
  for (int i = 1; i < (o.tiny ? 2 : 5); ++i) {
    Rpc extra(tracer, o.seed);
    const double s = set_up(extra);
    r.attempt(1);
    if (s < 0) {
      r.check(false, "udp_rpc RKOM channel set-up and warm-up call");
      return;
    }
    setup_s.push_back(s);
  }
  r.e2e("setup_s", median(setup_s));
}

}  // namespace perfbench
