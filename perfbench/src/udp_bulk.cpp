// udp_bulk: one reliable StreamSender -> StreamReceiver over 127.0.0.1 with
// the default StreamConfig (ack-based capacity, receiver flow control,
// 1 KB ST messages). The client keeps the IPC port full with 4 KB writes
// (a closed loop); every delivered byte is checked against the seeded
// stream, so delivery is byte-exact, exactly-once and in order.
#include <deque>
#include <memory>

#include "transport/stream.h"
#include "udp_world.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dash;

constexpr rms::PortId kPort = 60;
constexpr std::size_t kChunk = ChunkStream::kChunk;

struct BulkRig {
  workload::UdpLoopbackWorld world;
  transport::StreamReceiver rx{world.st(2), world.node(2).ports, kPort, {}};
  transport::StreamSender tx{world.st(1), world.node(1).ports, rms::Label{2, kPort}, {}};
};

/// Client state of one stream; the rig's callbacks point here, so it is
/// declared before (and outlives) the rig.
struct Bulk {
  Tracer& tracer;
  ChunkStream stream;
  std::uint64_t written = 0;    ///< chunks accepted by write()
  std::uint64_t completed = 0;  ///< chunks fully delivered
  std::deque<double> write_wall;
  bool corrupt = false;
  bool feeding = false;
  bool record = false;
  std::vector<double> latency_us;
  std::unique_ptr<BulkRig> rig;

  Bulk(Tracer& t, std::uint64_t seed) : tracer(t), stream(seed) {}

  void feed() {
    while (feeding) {
      Status s;
      {
        Span span(tracer, SpanKind::kWrite);
        s = rig->tx.write(stream.chunk(written));
      }
      if (!s.ok()) return;  // port full: on_writable resumes the loop
      write_wall.push_back(wall_seconds());
      ++written;
    }
  }

  void delivered(const Bytes& b) {
    if (!stream.verify(b)) corrupt = true;
    while (!write_wall.empty() && stream.delivered() >= (completed + 1) * kChunk) {
      if (record) latency_us.push_back((wall_seconds() - write_wall.front()) * 1e6);
      write_wall.pop_front();
      ++completed;
    }
  }

  bool all_delivered() const { return completed == written && write_wall.empty(); }
};

/// Builds the world, binds both ends, negotiates the stream and moves one
/// warm-up chunk. Returns the set-up wall time, or a negative value when
/// the stream could not be set up.
double set_up(Bulk& b) {
  const double t0 = wall_seconds();
  b.rig = std::make_unique<BulkRig>();
  BulkRig& rig = *b.rig;
  if (!rig.tx.ok()) return -1;
  rig.rx.on_data([&b](Bytes data) {
    Span span(b.tracer, SpanKind::kUser);
    b.delivered(data);
  });
  rig.tx.on_writable([&b] {
    Span span(b.tracer, SpanKind::kUser);
    b.feed();
  });
  {
    Span span(b.tracer, SpanKind::kWrite);
    if (!rig.tx.write(b.stream.chunk(0)).ok()) return -1;
  }
  b.write_wall.push_back(wall_seconds());
  b.written = 1;
  const bool ok = rig.world.driver.run_until([&b] { return b.completed == 1; }, sec(10));
  return ok ? wall_seconds() - t0 : -1;
}

struct Phase {
  ProcDelta proc;
  UdpSnap before;
  UdpSnap after;
  transport::StreamSender::Stats tx0, tx1;
  double goodput_MBps = 0;  ///< median over windows
  double cpu_us_per_op = 0;  ///< near-best window
  std::uint64_t chunks = 0;
  double bytes = 0;
};

/// The closed loop for `seconds`: keeps the port full and samples the
/// delivered byte count in windows.
Phase measure(Bulk& b, double seconds) {
  BulkRig& rig = *b.rig;
  const double window = std::min(1.0, seconds / 4);
  std::vector<double> window_MBps;
  const UdpSnap before = snap(rig.world);
  const transport::StreamSender::Stats tx0 = rig.tx.stats();
  const std::uint64_t completed0 = b.completed;
  const std::uint64_t bytes0 = b.stream.delivered();
  const ProcSample p0 = ProcSample::now();
  b.record = true;
  b.feeding = true;
  b.feed();
  ProcSample w0 = p0;
  std::uint64_t wbytes0 = bytes0;
  std::uint64_t wchunks0 = completed0;
  std::vector<double> window_cpu_us;
  for (;;) {
    {
      Span span(b.tracer, SpanKind::kRun);
      rig.world.driver.run_for(msec(10));
    }
    const ProcSample now = ProcSample::now();
    if (now.wall_s - w0.wall_s >= window) {
      window_MBps.push_back(static_cast<double>(b.stream.delivered() - wbytes0) / 1e6 /
                            (now.wall_s - w0.wall_s));
      window_cpu_us.push_back((now.cpu_s() - w0.cpu_s()) * 1e6 /
                              static_cast<double>(std::max<std::uint64_t>(
                                  1, b.completed - wchunks0)));
      w0 = now;
      wbytes0 = b.stream.delivered();
      wchunks0 = b.completed;
    }
    if (now.wall_s - p0.wall_s >= seconds) break;
  }
  b.record = false;
  b.feeding = false;
  const ProcSample p1 = ProcSample::now();
  Phase ph{ProcDelta(p0, p1), before, snap(rig.world), tx0, rig.tx.stats()};
  ph.goodput_MBps = median(window_MBps);
  // Other tenants of the machine only ever add CPU time (cache and
  // frequency effects), so CPU cost takes a near-best window.
  ph.cpu_us_per_op = percentile(window_cpu_us, kNearBest);
  ph.chunks = b.completed - completed0;
  ph.bytes = static_cast<double>(b.stream.delivered() - bytes0);
  return ph;
}

}  // namespace

void run_udp_bulk(const Options& o, Report& r) {
  Tracer tracer(false);
  // The first stream is the measured one; the extra set-ups that only time
  // set-up again come after it.
  auto bulk = std::make_unique<Bulk>(tracer, o.seed);
  std::vector<double> setup_s = {set_up(*bulk)};
  if (setup_s[0] < 0) {
    r.attempt(1);
    r.check(false, "udp_bulk stream set-up and warm-up chunk");
    return;
  }
  // Memory once set up: what the run adds on top depends on how the host
  // schedules this process (received datagrams pile up while it waits).
  r.e2e("peak_rss_MB", peak_rss_mb());
  Bulk& b = *bulk;
  BulkRig& rig = *b.rig;

  // Untraced phase; a traced run adds a traced phase of the same length and
  // takes its layer metrics from that one.
  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  const Phase plain = measure(b, phase_s);
  Phase traced = plain;
  if (o.trace) {
    tracer.set_on(true);
    traced = measure(b, phase_s);
    tracer.set_on(false);
  }

  // Drain: every written chunk must arrive exactly once, in order.
  const bool drained = rig.world.driver.run_until(
      [&] { return rig.tx.drained() && b.all_delivered(); }, sec(10));
  r.attempt(b.written);
  r.check(!b.corrupt, "udp_bulk delivery is byte-exact, exactly-once and in order");
  r.check(drained, "udp_bulk stream drained: every written chunk delivered");
  r.fail_ops(b.written - b.completed, "udp_bulk chunks not delivered");
  const double ops = static_cast<double>(plain.chunks);
  r.e2e("goodput_MBps", plain.goodput_MBps);
  r.e2e("op_p50_us", percentile(b.latency_us, 0.50));
  r.e2e("op_p90_us", percentile(b.latency_us, 0.90));
  r.note("udp_bulk: " + std::to_string(plain.goodput_MBps) + " MB/s goodput, " +
         std::to_string(plain.chunks) + " chunks of 4 KB, " +
         std::to_string(b.latency_us.size()) + " latency samples, cpu " +
         std::to_string(plain.proc.cpu_s() / plain.proc.wall_s) + " of wall");

  if (o.trace) {
    const double tops = static_cast<double>(traced.chunks);
    const double mb = traced.bytes / 1e6;
    report_udp(traced.before, traced.after, tops, r);
    traced.proc.report(r, tops);
    r.layer("proc.cpu_us_per_op", plain.cpu_us_per_op);
    r.layer("transport.write_us_per_MB", ratio(tracer.self_ns(SpanKind::kWrite) / 1e3, mb));
    const auto& t0 = traced.tx0;
    const auto& t1 = traced.tx1;
    r.layer("transport.retransmissions",
            static_cast<double>(t1.retransmissions - t0.retransmissions));
    r.layer("transport.write_blocked", static_cast<double>(t1.write_blocked - t0.write_blocked));
    r.layer("transport.acks_per_MB",
            ratio(static_cast<double>(t1.acks_received - t0.acks_received), mb));
    const double cpu_plain = plain.proc.cpu_s() / std::max(ops, 1.0);
    const double cpu_traced = traced.proc.cpu_s() / std::max(tops, 1.0);
    r.layer("trace.overhead_frac", ratio(cpu_traced, cpu_plain) - 1.0);
    report_spans(tracer, o, r, tops);
    return;
  }

  // More set-ups, timed only, once the measured stream is gone.
  bulk.reset();
  for (int i = 1; i < (o.tiny ? 2 : 5); ++i) {
    Bulk extra(tracer, o.seed);
    const double s = set_up(extra);
    r.attempt(1);
    if (s < 0) {
      r.check(false, "udp_bulk stream set-up and warm-up chunk");
      return;
    }
    setup_s.push_back(s);
  }
  r.e2e("setup_s", median(setup_s));
}

}  // namespace perfbench
