// sim_lan: a closed world in simulated time on one sim::Simulator. A
// 100 Mb/s Ethernet segment (ethernet_traits() at 10x bandwidth) carries
// 45 hosts:
//   * 16 bidirectional voice pairs, 160 B every 20 ms on voice_request();
//   * 2 reliable bulk transfers writing 4 KB messages (each fragments);
//   * 8 RKOM clients making Poisson calls (mean gap 5 ms) to one server
//     with 50 us service time.
// One episode builds the world, warms every stream up, then simulates a
// fixed duration. A run cycles through kSubSeeds worlds derived from the
// seed, then repeats them until the wall budget is spent; every repeat must
// reproduce its first run's delivery digest and outcomes exactly.
#include <functional>
#include <memory>

#include "net/ethernet.h"
#include "rkom/rkom.h"
#include "transport/stream.h"
#include "util/hash.h"
#include "util/rng.h"
#include "layers.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dash;

constexpr int kVoicePairs = 16;
constexpr int kBulkFlows = 2;
constexpr int kRpcClients = 8;
constexpr rms::HostId kFirstBulkHost = 2 * kVoicePairs + 1;         // 33
constexpr rms::HostId kServerHost = kFirstBulkHost + 2 * kBulkFlows;  // 37
constexpr int kHosts = static_cast<int>(kServerHost) + kRpcClients;
static_assert(kHosts == kLanHosts);
constexpr rms::PortId kVoicePort = 70;
constexpr rms::PortId kBulkPort = 60;
constexpr std::uint64_t kEcho = 7;
constexpr Time kServiceTime = usec(50);
constexpr double kMeanCallGap = 0.005;  ///< seconds
constexpr Time kSlice = msec(10);       ///< simulated time per run_until span
constexpr Time kDrain = sec(1);
constexpr std::int64_t kEpisodeSeconds = 10;  ///< simulated time per episode
constexpr int kSubSeeds = 4;  ///< distinct worlds per run; outcomes pool them

struct Host {
  rms::HostId id = 0;
  std::unique_ptr<sim::CpuScheduler> cpu;
  rms::PortRegistry ports;
  std::unique_ptr<st::SubtransportLayer> st;
  std::unique_ptr<rkom::RkomNode> rkom;  ///< RKOM hosts only; dies before st
};

struct Lan {
  sim::Simulator sim;
  std::unique_ptr<net::EthernetNetwork> network;
  std::unique_ptr<netrms::NetRmsFabric> fabric;
  std::vector<std::unique_ptr<Host>> hosts;

  explicit Lan(std::uint64_t seed) {
    net::NetworkTraits traits = net::ethernet_traits();
    traits.bits_per_second *= 10;
    network = std::make_unique<net::EthernetNetwork>(sim, traits, seed);
    fabric = std::make_unique<netrms::NetRmsFabric>(sim, *network);
    for (int i = 1; i <= kHosts; ++i) {
      auto h = std::make_unique<Host>();
      h->id = static_cast<rms::HostId>(i);
      h->cpu = std::make_unique<sim::CpuScheduler>(sim, sim::CpuPolicy::kEdf);
      fabric->register_host(h->id, *h->cpu, h->ports);
      h->st = std::make_unique<st::SubtransportLayer>(sim, h->id, *h->cpu, h->ports);
      h->st->add_network(*fabric);
      hosts.push_back(std::move(h));
    }
  }
  Host& host(rms::HostId id) { return *hosts.at(id - 1); }
};

Bytes voice_frame(std::uint64_t seed, std::uint64_t voice, std::uint64_t frame) {
  Bytes b = patterned_bytes(workload::kVoiceFrameBytes,
                            seed ^ (voice << 32) ^ (frame * 0x9E3779B97F4A7C15ull));
  std::memcpy(b.data(), &frame, sizeof frame);
  std::memcpy(b.data() + 8, &voice, sizeof voice);
  return b;
}

/// Everything one episode measures. Deterministic fields must repeat
/// exactly across episodes of one seed.
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t voice_sent = 0, voice_ontime = 0, voice_lost = 0, voice_bad = 0;
  std::uint64_t calls = 0, replies = 0;
  std::uint64_t bulk_chunks = 0, bulk_unfinished = 0;
  bool bulk_corrupt = false;
  double bulk_bytes = 0;  ///< delivered inside the measured window
  std::vector<double> rpc_latency_us;
  double app_bytes = 0;   ///< payload delivered inside the measured window

  bool same_as(const Outcome& o) const {
    return digest == o.digest && events == o.events && voice_sent == o.voice_sent &&
           voice_ontime == o.voice_ontime && calls == o.calls &&
           replies == o.replies && bulk_bytes == o.bulk_bytes &&
           rpc_latency_us == o.rpc_latency_us;
  }
  double ops() const {
    return static_cast<double>(voice_sent + calls + bulk_chunks);
  }
  void pool(const Outcome& o) {
    digest = hash_combine(digest, o.digest);
    events += o.events;
    voice_sent += o.voice_sent;
    voice_ontime += o.voice_ontime;
    voice_lost += o.voice_lost;
    voice_bad += o.voice_bad;
    calls += o.calls;
    replies += o.replies;
    bulk_chunks += o.bulk_chunks;
    bulk_unfinished += o.bulk_unfinished;
    bulk_corrupt = bulk_corrupt || o.bulk_corrupt;
    bulk_bytes += o.bulk_bytes;
    app_bytes += o.app_bytes;
    rpc_latency_us.insert(rpc_latency_us.end(), o.rpc_latency_us.begin(),
                          o.rpc_latency_us.end());
  }
};

/// One episode: the world, its generators and their checks. Members are
/// declared so the streams and nodes die before the world they live on.
class Episode {
 public:
  Episode(std::uint64_t seed, Tracer& tracer) : seed_(seed), tracer_(tracer), lan_(seed) {}

  /// Builds streams and RKOM nodes and warms each stream up with one
  /// operation. Returns false if something could not be set up.
  bool set_up();
  /// Simulates `duration` from now, then drains.
  void run(Time duration);

  Outcome& outcome() { return out_; }
  LayerSnap& before() { return before_; }
  LayerSnap& after() { return after_; }
  double run_wall_s() const { return run_wall_s_; }
  const ProcDelta& proc() const { return proc_; }
  std::uint64_t net_drops() const { return net_drops_; }
  transport::StreamSender::Stats bulk_tx_stats() const;
  std::uint64_t rkom_retransmissions() const;
  double bulk_written_MB() const;

 private:
  struct Voice {
    std::uint64_t index = 0;
    std::unique_ptr<rms::Rms> stream;
    rms::Port inbox;
    Time bound = 0;
    std::uint64_t next_frame = 0;
    std::uint64_t last_received = 0;
  };
  struct Bulk {
    explicit Bulk(std::uint64_t seed) : stream(seed) {}
    ChunkStream stream;
    std::unique_ptr<transport::StreamReceiver> rx;
    std::unique_ptr<transport::StreamSender> tx;
    std::uint64_t written = 0;
    bool corrupt = false;
  };
  struct Client {
    rkom::RkomNode* node = nullptr;
    std::uint64_t index = 0;
    Rng rng{1};
    std::uint64_t next_call = 0;
  };

  void mix(std::uint64_t a, std::uint64_t b) {
    out_.digest = hash_combine(hash_combine(out_.digest, static_cast<std::size_t>(lan_.sim.now())), a);
    out_.digest = hash_combine(out_.digest, b);
  }
  bool measuring() const { return lan_.sim.now() >= start_ && lan_.sim.now() < end_; }
  void send_voice(Voice& v);
  void voice_tick(Voice& v, Time at);
  void feed(Bulk& b);
  void call(Client& c);
  void call_tick(Client& c);
  bool warm() const;

  std::uint64_t seed_;
  Tracer& tracer_;
  Lan lan_;
  std::vector<std::unique_ptr<Voice>> voices_;
  std::vector<std::unique_ptr<Bulk>> bulks_;
  std::vector<Client> clients_;
  Outcome out_;
  Time start_ = kTimeNever;
  Time end_ = kTimeNever;
  std::uint64_t warm_voice_ = 0, warm_calls_ = 0;
  LayerSnap before_, after_;
  double run_wall_s_ = 0;
  ProcDelta proc_;
  std::uint64_t net_drops_ = 0;
};

void Episode::send_voice(Voice& v) {
  rms::Message m;
  m.data = voice_frame(seed_, v.index, v.next_frame++);
  Span span(tracer_, SpanKind::kSend);
  (void)v.stream->send(std::move(m));
}

void Episode::voice_tick(Voice& v, Time at) {
  if (at >= end_) return;
  lan_.sim.at(at, [this, &v, at] {
    Span span(tracer_, SpanKind::kUser);
    ++out_.voice_sent;
    send_voice(v);
    voice_tick(v, at + workload::kVoiceFrameInterval);
  });
}

void Episode::feed(Bulk& b) {
  while (lan_.sim.now() < end_) {
    Status s;
    {
      Span span(tracer_, SpanKind::kWrite);
      s = b.tx->write(b.stream.chunk(b.written));
    }
    if (!s.ok()) return;
    ++b.written;
  }
}

void Episode::call(Client& c) {
  const std::uint64_t i = c.next_call++;
  const Time issued = lan_.sim.now();
  const bool counted = measuring();
  if (counted) ++out_.calls;
  Span span(tracer_, SpanKind::kCall);
  c.node->call(kServerHost, kEcho, rpc_args(seed_, c.index, i),
               [this, &c, i, issued, counted](Result<Bytes> reply) {
                 Span user(tracer_, SpanKind::kUser);
                 // A failed or wrong reply counts in calls - replies.
                 if (!reply.ok() || reply.value() != rpc_args(seed_, c.index, i)) return;
                 mix(c.index, i);
                 if (!counted) {
                   ++warm_calls_;
                   return;
                 }
                 ++out_.replies;
                 out_.rpc_latency_us.push_back(
                     static_cast<double>(lan_.sim.now() - issued) / 1e3);
                 if (lan_.sim.now() < end_) out_.app_bytes += 256;
               });
}

void Episode::call_tick(Client& c) {
  const Time gap = std::max<Time>(1, static_cast<Time>(c.rng.exponential(kMeanCallGap) * 1e9));
  if (lan_.sim.now() + gap >= end_) return;
  lan_.sim.after(gap, [this, &c] {
    Span span(tracer_, SpanKind::kUser);
    call(c);
    call_tick(c);
  });
}

bool Episode::set_up() {
  // Voice: pair k is hosts 2k-1 <-> 2k, one stream each way.
  for (int p = 0; p < kVoicePairs; ++p) {
    const rms::HostId a = static_cast<rms::HostId>(2 * p + 1);
    for (auto [from, to] : {std::pair{a, a + 1}, std::pair{a + 1, a}}) {
      auto v = std::make_unique<Voice>();
      v->index = voices_.size();
      Voice& vr = *v;
      const rms::PortId port = kVoicePort + vr.index;
      lan_.host(to).ports.bind(port, &vr.inbox);
      auto created = lan_.host(from).st->create(workload::voice_request(), {to, port});
      if (!created) return false;
      vr.stream = std::move(created).value();
      vr.bound = vr.stream->params().delay.bound_for(workload::kVoiceFrameBytes);
      vr.inbox.set_handler([this, &vr](rms::Message m) {
        Span span(tracer_, SpanKind::kUser);
        std::uint64_t frame = 0;
        if (m.size() >= 8) std::memcpy(&frame, m.data.view().data(), sizeof frame);
        const bool fresh = frame >= vr.last_received;
        if (!fresh ||!(m.data == voice_frame(seed_, vr.index, frame))) {
          ++out_.voice_bad;
          return;
        }
        vr.last_received = frame + 1;
        if (frame == 0) {
          ++warm_voice_;
        } else {
          if (lan_.sim.now() - m.sent_at <= vr.bound) ++out_.voice_ontime;
          if (lan_.sim.now() < end_) out_.app_bytes += static_cast<double>(m.size());
        }
        mix(vr.index, frame);
      });
      voices_.push_back(std::move(v));
    }
  }
  // Bulk: hosts 33 -> 34 and 35 -> 36, 4 KB ST messages over a 1500-byte
  // frame, so every message fragments.
  for (int f = 0; f < kBulkFlows; ++f) {
    const rms::HostId from = kFirstBulkHost + 2 * static_cast<rms::HostId>(f);
    auto b = std::make_unique<Bulk>(seed_ * 31 + static_cast<std::uint64_t>(f));
    Bulk& br = *b;
    transport::StreamConfig cfg;
    cfg.message_size = ChunkStream::kChunk;
    br.rx = std::make_unique<transport::StreamReceiver>(*lan_.host(from + 1).st,
                                                        lan_.host(from + 1).ports,
                                                        kBulkPort, cfg);
    br.tx = std::make_unique<transport::StreamSender>(
        *lan_.host(from).st, lan_.host(from).ports, rms::Label{from + 1, kBulkPort}, cfg,
        transport::bulk_data_request(64 * 1024, ChunkStream::kChunk));
    if (!br.tx->ok()) return false;
    br.rx->on_data([this, &br, f](Bytes data) {
      Span span(tracer_, SpanKind::kUser);
      if (!br.stream.verify(data)) br.corrupt = true;
      if (measuring()) {
        out_.bulk_bytes += static_cast<double>(data.size());
        out_.app_bytes += static_cast<double>(data.size());
      }
      mix(1000 + static_cast<std::uint64_t>(f), br.stream.delivered());
    });
    br.tx->on_writable([this, &br] {
      Span span(tracer_, SpanKind::kUser);
      feed(br);
    });
    bulks_.push_back(std::move(b));
  }
  // RKOM: one echo server, eight Poisson clients.
  Host& server = lan_.host(kServerHost);
  server.rkom = std::make_unique<rkom::RkomNode>(*server.st, server.ports);
  server.rkom->register_operation(
      kEcho, {[](BytesView args) { return Bytes(args.begin(), args.end()); }, kServiceTime});
  for (int c = 0; c < kRpcClients; ++c) {
    Host& h = lan_.host(kServerHost + 1 + static_cast<rms::HostId>(c));
    h.rkom = std::make_unique<rkom::RkomNode>(*h.st, h.ports);
    Client cl;
    cl.node = h.rkom.get();
    cl.index = static_cast<std::uint64_t>(c);
    cl.rng = Rng(seed_ * 1'000'003 + static_cast<std::uint64_t>(c));
    clients_.push_back(cl);
  }

  // Warm-up: one frame per voice stream, one chunk per bulk stream, one
  // call per client (which also opens its RKOM channel).
  for (auto& v : voices_) send_voice(*v);
  for (auto& b : bulks_) {
    if (!b->tx->write(b->stream.chunk(0)).ok()) return false;
    b->written = 1;
  }
  for (auto& c : clients_) call(c);
  const Time limit = lan_.sim.now() + sec(10);
  while (!warm() && lan_.sim.now() < limit) {
    Span span(tracer_, SpanKind::kRun);
    lan_.sim.run_for(msec(1));
  }
  return warm();
}

bool Episode::warm() const {
  if (warm_voice_ != voices_.size() || warm_calls_ != clients_.size()) return false;
  for (const auto& b : bulks_) {
    if (b->stream.delivered() < ChunkStream::kChunk) return false;
  }
  return true;
}

void Episode::run(Time duration) {
  sim::Simulator& sim = lan_.sim;
  const auto snapshot = [this](LayerSnap& s) {
    for (auto& h : lan_.hosts) s.add_host(*h->st, *h->cpu);
    s.add_fabric(*lan_.fabric);
    s.add_engine(lan_.sim);
  };
  start_ = sim.now();
  end_ = start_ + duration;
  // Room for twice the expected calls, so the sample's growth does not
  // make the harness's memory depend on the seed.
  out_.rpc_latency_us.reserve(static_cast<std::size_t>(
      2 * kRpcClients * to_seconds(duration) / kMeanCallGap));
  snapshot(before_);
  const ProcSample p0 = ProcSample::now();
  // Voice phases and call gaps come from the seed.
  Rng phases(seed_ ^ 0x5eedull);
  for (auto& v : voices_) {
    voice_tick(*v, start_ + static_cast<Time>(phases.below(
                                static_cast<std::uint64_t>(workload::kVoiceFrameInterval))));
  }
  for (auto& c : clients_) call_tick(c);
  for (auto& b : bulks_) feed(*b);
  while (sim.now() < end_) {
    Span span(tracer_, SpanKind::kRun);
    sim.run_until(std::min(end_, sim.now() + kSlice));
  }
  const ProcSample p1 = ProcSample::now();
  run_wall_s_ = p1.wall_s - p0.wall_s;
  proc_ = ProcDelta(p0, p1);
  snapshot(after_);
  out_.events = after_.events - before_.events;
  net_drops_ = after_.net_dropped - before_.net_dropped;
  {
    Span span(tracer_, SpanKind::kRun);
    sim.run_until(end_ + kDrain);
  }
  // Frame 0 of each stream was the warm-up.
  std::uint64_t received = 0;
  for (auto& v : voices_) received += v->inbox.delivered() - 1;
  out_.voice_lost = out_.voice_sent > received ? out_.voice_sent - received : 0;
  for (auto& b : bulks_) {
    out_.bulk_corrupt = out_.bulk_corrupt || b->corrupt;
    const std::uint64_t done = b->stream.delivered() / ChunkStream::kChunk;
    out_.bulk_chunks += b->written - 1;
    out_.bulk_unfinished += b->written - std::min(b->written, done);
  }
}

transport::StreamSender::Stats Episode::bulk_tx_stats() const {
  transport::StreamSender::Stats s;
  for (const auto& b : bulks_) {
    const auto& t = b->tx->stats();
    s.retransmissions += t.retransmissions;
    s.write_blocked += t.write_blocked;
    s.acks_received += t.acks_received;
  }
  return s;
}

double Episode::bulk_written_MB() const {
  double mb = 0;
  for (const auto& b : bulks_) {
    mb += static_cast<double>(b->written * ChunkStream::kChunk) / 1e6;
  }
  return mb;
}

std::uint64_t Episode::rkom_retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& h : lan_.hosts) {
    if (h->rkom == nullptr) continue;
    n += h->rkom->stats().request_retransmissions + h->rkom->stats().reply_retransmissions;
  }
  return n;
}

}  // namespace

void run_sim_lan(const Options& o, Report& r) {
  const Time duration = o.tiny ? sec(1) : sec(kEpisodeSeconds);
  Tracer tracer(false);
  // Wall-clock figures, one per untraced episode.
  std::vector<double> setup_s, goodput, cpu_per_op, speed, traced_cpu_per_op;
  std::vector<Outcome> refs;  ///< first episode of each sub-seed
  std::unique_ptr<Episode> last_traced;
  double traced_events = 0, traced_ops = 0, traced_MB = 0, peak_rss = 0;
  const double t0 = wall_seconds();
  int episodes = 0;
  bool deterministic = true;
  // Every sub-seed runs once, then the cycle repeats until the wall budget
  // is spent; a repeat must reproduce its first run exactly. A traced run
  // alternates untraced and traced episodes.
  const int min_episodes = kSubSeeds + (o.trace ? 2 : 1);
  while (episodes < min_episodes || wall_seconds() - t0 < o.seconds) {
    const int sub = episodes % kSubSeeds;
    const bool traced = o.trace && episodes % 2 == 1;
    tracer.set_on(traced);
    auto ep = std::make_unique<Episode>(o.seed * kSubSeeds + static_cast<std::uint64_t>(sub),
                                        tracer);
    const double s0 = wall_seconds();
    if (!ep->set_up()) {
      r.attempt(1);
      r.check(false, "sim_lan streams set up and warmed up");
      return;
    }
    const double setup = wall_seconds() - s0;
    ep->run(duration);
    tracer.set_on(false);
    // Peak memory of one world in a fresh process: later episodes only
    // add allocator fragmentation that depends on how many ran.
    if (episodes++ == 0) peak_rss = peak_rss_mb();
    const Outcome& out = ep->outcome();
    if (refs.size() < static_cast<std::size_t>(kSubSeeds)) {
      refs.push_back(out);
    } else if (!out.same_as(refs[static_cast<std::size_t>(sub)])) {
      deterministic = false;
    }
    const double ops = std::max(out.ops(), 1.0);
    if (traced) {
      traced_cpu_per_op.push_back(ep->proc().cpu_s() / ops);
      traced_events += static_cast<double>(out.events);
      traced_ops += ops;
      traced_MB += ep->bulk_written_MB();
      last_traced = std::move(ep);
      continue;
    }
    setup_s.push_back(setup);
    goodput.push_back(out.app_bytes / 1e6 / ep->run_wall_s());
    cpu_per_op.push_back(ep->proc().cpu_s() / ops);
    speed.push_back(to_seconds(duration) / ep->run_wall_s());
  }

  Outcome out;
  std::size_t samples = 0;
  for (const Outcome& ref : refs) samples += ref.rpc_latency_us.size();
  out.rpc_latency_us.reserve(samples);
  for (const Outcome& ref : refs) out.pool(ref);
  r.attempt(static_cast<std::uint64_t>(out.ops()));
  r.check(deterministic, "sim_lan " + std::to_string(episodes) + " episodes over " +
                             std::to_string(kSubSeeds) +
                             " sub-seeds: every repeat reproduces its delivery digest "
                             "and deterministic metrics");
  r.check(!out.bulk_corrupt, "sim_lan bulk delivery is byte-exact, exactly-once, in order");
  r.check(out.voice_bad == 0, "sim_lan no corrupt or out-of-order voice frame");
  r.fail_ops(out.voice_lost, "sim_lan voice frames lost");
  r.fail_ops(out.calls - out.replies, "sim_lan RPC calls failed or unanswered");
  r.fail_ops(out.bulk_unfinished, "sim_lan bulk chunks not delivered");

  // Deterministic outcomes pool the sub-seeds' reference episodes.
  const double sim_s = to_seconds(duration) * kSubSeeds;
  const double ontime = ratio(static_cast<double>(out.voice_ontime),
                              static_cast<double>(out.voice_sent));
  const double bulk_MBps = out.bulk_bytes / 1e6 / sim_s;
  const double rpc_p99_ms = percentile(out.rpc_latency_us, 0.99) / 1e3;
  // Other tenants of the machine only ever slow an episode down, so the
  // wall-clock figures take a near-best episode.
  r.e2e("peak_rss_MB", peak_rss);
  r.e2e("setup_s", percentile(setup_s, kNearBest));
  r.e2e("goodput_MBps", percentile(goodput, 1 - kNearBest));
  r.e2e("op_p50_us", percentile(out.rpc_latency_us, 0.50));
  r.e2e("op_p90_us", percentile(out.rpc_latency_us, 0.90));
  r.note("sim_lan: " + std::to_string(episodes) + " episodes of " +
         std::to_string(to_seconds(duration)) + " sim-s, " +
         std::to_string(percentile(speed, 1 - kNearBest)) + " sim-s per wall-s, voice on time " +
         std::to_string(ontime) + " of " + std::to_string(out.voice_sent) + ", rpc p99 " +
         std::to_string(rpc_p99_ms) + " ms over " +
         std::to_string(out.rpc_latency_us.size()) + " calls, bulk " +
         std::to_string(bulk_MBps) + " MB/s, digest " + std::to_string(out.digest));
  std::string speeds = "sim_lan sim-s per wall-s by episode:";
  for (double s : speed) speeds += " " + std::to_string(s).substr(0, 5);
  r.note(speeds);

  if (!o.trace) return;
  Episode& ep = *last_traced;
  const double tops = std::max(ep.outcome().ops(), 1.0);
  report_layers(ep.before(), ep.after(), tops, r);
  ep.proc().report(r, tops);
  r.layer("proc.cpu_us_per_op", percentile(cpu_per_op, kNearBest) * 1e6);
  r.layer("sim.speed", percentile(speed, 1 - kNearBest));
  r.layer("sim.ns_per_event", ratio(tracer.self_ns(SpanKind::kRun), traced_events));
  r.layer("lan.voice_ontime_frac", ontime);
  r.layer("lan.rpc_p99_ms", rpc_p99_ms);
  r.layer("lan.bulk_MBps", bulk_MBps);
  r.layer("net.ethernet.drops", static_cast<double>(ep.net_drops()));
  r.layer("st.send_us", ratio(tracer.self_ns(SpanKind::kSend) / 1e3,
                              static_cast<double>(tracer.count(SpanKind::kSend))));
  r.layer("rkom.call_us", ratio(tracer.self_ns(SpanKind::kCall) / 1e3,
                                static_cast<double>(tracer.count(SpanKind::kCall))));
  r.layer("rkom.retransmissions", static_cast<double>(ep.rkom_retransmissions()));
  const auto tx = ep.bulk_tx_stats();
  const double mb = ep.bulk_written_MB();
  r.layer("transport.write_us_per_MB", ratio(tracer.self_ns(SpanKind::kWrite) / 1e3, traced_MB));
  r.layer("transport.retransmissions", static_cast<double>(tx.retransmissions));
  r.layer("transport.write_blocked", static_cast<double>(tx.write_blocked));
  r.layer("transport.acks_per_MB", ratio(static_cast<double>(tx.acks_received), mb));
  r.layer("trace.overhead_frac", ratio(percentile(traced_cpu_per_op, kNearBest),
                                       percentile(cpu_per_op, kNearBest)) - 1.0);
  report_spans(tracer, o, r, traced_ops);
}

}  // namespace perfbench
