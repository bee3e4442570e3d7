// C8 (§4.4, §5): gateway-buffer protection — RMS capacity vs TCP-like
// source quench.
//
// Six senders push bulk data through one congested gateway (32 KB of
// buffering in front of a T1 trunk). Three regimes:
//
//   RMS deterministic — each stream's capacity is reserved in the gateway
//                       buffers at admission; clients enforce capacity;
//   RMS best-effort   — capacity enforced by clients but not reserved;
//   TCP-like + quench — a fixed 16 KB window per connection (6 x 16 KB
//                       against 32 KB of buffer) with RFC-896 source
//                       quench as the only congestion signal.
//
// plus both RMS regimes again under a hostile unregulated packet flood,
// and four congestion-control regimes (DESIGN.md §13): best-effort
// senders with oversized 64 KB windows thrashing the gateway unpaced vs
// under the model-based enforcer (kModel: delivery-rate model + pacing +
// source-quench backoff), the model enforcer under the hostile flood, and
// a mixed world where paced best-effort bulk shares the gateway with
// deterministic reservations.
//
// Shape: with conforming senders both RMS regimes keep gateway drops at
// zero; under the flood only the *reserved* (deterministic) streams keep
// their buffer share; the TCP-like flood drops heavily at the gateway,
// quenching "often ineffectively" (§4.4). The model-based enforcer cuts
// the overload regime's drops by an order of magnitude and leaves the
// deterministic class untouched.
//
// CLI: the shared baseline gate (bench_util.h Gate; the CI gate uses
// --check) over the cc metrics, higher is better for every key.

#include "bench_util.h"
#include "baseline/sliding_window.h"

using namespace dash;
using namespace dash::bench;

namespace {

constexpr int kSenders = 6;
constexpr std::size_t kPerSender = 256 * 1024;

struct CongestionRow {
  double goodput_kbs;     // aggregate delivered / elapsed
  std::uint64_t gateway_drops;
  std::uint64_t retransmissions;
  double completed_frac;  // of kSenders * kPerSender
  std::uint64_t quenches;
};

net::NetworkTraits congested_traits() {
  auto traits = net::internet_traits();
  traits.buffer_bytes = 32 * 1024;
  return traits;
}

/// Knobs distinguishing the cc regimes from the original rows. Defaults
/// reproduce the original rows exactly (ack-window capacity enforcement,
/// 3 KB windows, no gateway source quench).
struct RmsOpts {
  bool flood = false;
  transport::CapacityMode mode = transport::CapacityMode::kAckBased;
  std::uint64_t capacity = 3 * 1024;
  bool quench = false;  ///< gateway emits RFC-896 quench -> cc model backoff
};

CongestionRow run_rms(rms::BoundType type, RmsOpts opts = {}) {
  std::vector<rms::HostId> left, right;
  for (int i = 0; i < kSenders; ++i) left.push_back(static_cast<rms::HostId>(i + 1));
  right.push_back(100);
  auto wan = node::dumbbell_world(left, right, congested_traits(), 71);
  if (opts.quench) wan.network->enable_source_quench(true);

  struct Flow {
    std::unique_ptr<transport::StreamReceiver> rx;
    std::unique_ptr<transport::StreamSender> tx;
    std::unique_ptr<Feeder> feeder;
    std::size_t got = 0;
    Time done_at = 0;
  };
  std::vector<std::unique_ptr<Flow>> flows;
  for (int i = 0; i < kSenders; ++i) {
    auto f = std::make_unique<Flow>();
    transport::StreamConfig cfg;
    cfg.message_size = 500;
    cfg.retransmit_timeout = msec(300);
    // Fixed RTO: the §4.4 comparison varies only the capacity-enforcement
    // policy. (Adaptive RTO with a 50 ms floor fires spuriously here when
    // congestion grows the cumulative-ack delay faster than SRTT+4·RTTVAR
    // tracks it, adding retransmit load that confounds the regime rows.)
    cfg.adaptive_rto = false;
    cfg.capacity = opts.mode;
    f->rx = std::make_unique<transport::StreamReceiver>(
        *wan.node(100).st, wan.node(100).ports, 60 + static_cast<rms::PortId>(i), cfg);
    auto* raw = f.get();
    sim::Simulator* simp = &wan.sim;
    f->rx->on_data([raw, simp](Bytes b) {
      raw->got += b.size();
      if (raw->done_at == 0 && raw->got >= kPerSender) raw->done_at = simp->now();
    });

    auto request = transport::bulk_data_request(opts.capacity, 500);
    request.desired.delay.type = type;
    request.acceptable.delay.type = type;
    request.desired.delay.a = msec(500);
    request.acceptable.delay.a = sec(30);
    f->tx = std::make_unique<transport::StreamSender>(
        *wan.node(static_cast<rms::HostId>(i + 1)).st,
        wan.node(static_cast<rms::HostId>(i + 1)).ports,
        rms::Label{100, 60 + static_cast<rms::PortId>(i)}, cfg, request);
    if (!f->tx->ok()) {
      std::printf("  (sender %d rejected: %s)\n", i + 1,
                  f->tx->creation_error().message.c_str());
      continue;
    }
    f->feeder = std::make_unique<Feeder>(*f->tx, kPerSender);
    flows.push_back(std::move(f));
  }

  if (opts.flood) {
    // A non-conforming source blasts raw packets through the same gateway
    // at twice the trunk rate — the §4.4 scenario reservations exist for.
    auto inject = std::make_shared<std::function<void()>>();
    net::InternetNetwork* network = wan.network;
    sim::Simulator* simp = &wan.sim;
    *inject = [network, simp, inject] {
      net::Packet p;
      p.src = 1;
      p.dst = 100;
      p.stream = 999'999;  // no reservation, no capacity enforcement
      p.deadline = kTimeNever;
      p.payload = patterned_bytes(500, 9);
      network->send(std::move(p));
      simp->after(usec(1300), [inject] { (*inject)(); });
    };
    (*inject)();
  }

  wan.sim.run_until(sec(90));

  CongestionRow out{};
  std::size_t total = 0;
  std::uint64_t retx = 0;
  Time finished = 0;
  for (auto& f : flows) {
    total += f->got;
    retx += f->tx->stats().retransmissions;
    out.quenches += f->tx->stats().quench_signals;
    finished = std::max(finished, f->done_at == 0 ? wan.sim.now() : f->done_at);
  }
  out.goodput_kbs = static_cast<double>(total) / to_seconds(finished) / 1e3;
  out.gateway_drops = wan.network->gateway_drops();
  out.retransmissions = retx;
  out.completed_frac =
      static_cast<double>(total) / (static_cast<double>(kSenders) * kPerSender);
  return out;
}

/// Half the senders hold deterministic reservations, half run paced
/// best-effort bulk (kModel) — the guarantee-isolation regime: the cc
/// subsystem must keep the gateway clean and the deterministic class
/// untouched while soaking up the leftover trunk capacity.
struct MixedRow {
  double det_complete = 0.0;  ///< deterministic bytes delivered / expected
  double be_goodput_kbs = 0.0;
  std::uint64_t gateway_drops = 0;
  std::uint64_t quenches = 0;
};

MixedRow run_mixed() {
  std::vector<rms::HostId> left, right;
  for (int i = 0; i < kSenders; ++i) left.push_back(static_cast<rms::HostId>(i + 1));
  right.push_back(100);
  auto wan = node::dumbbell_world(left, right, congested_traits(), 71);
  wan.network->enable_source_quench(true);

  struct Flow {
    std::unique_ptr<transport::StreamReceiver> rx;
    std::unique_ptr<transport::StreamSender> tx;
    std::unique_ptr<Feeder> feeder;
    bool det = false;
    std::size_t got = 0;
  };
  std::vector<std::unique_ptr<Flow>> flows;
  for (int i = 0; i < kSenders; ++i) {
    const bool det = i < kSenders / 2;
    auto f = std::make_unique<Flow>();
    f->det = det;
    transport::StreamConfig cfg;
    cfg.message_size = 500;
    cfg.retransmit_timeout = msec(300);
    // Deterministic flows run the seed configuration (fixed RTO, ack
    // window); only the best-effort flows exercise the new cc stack.
    if (det) cfg.adaptive_rto = false;
    cfg.capacity = det ? transport::CapacityMode::kAckBased
                       : transport::CapacityMode::kModel;
    f->rx = std::make_unique<transport::StreamReceiver>(
        *wan.node(100).st, wan.node(100).ports, 60 + static_cast<rms::PortId>(i), cfg);
    auto* raw = f.get();
    f->rx->on_data([raw](Bytes b) { raw->got += b.size(); });

    auto request = transport::bulk_data_request(det ? 3 * 1024 : 8 * 1024, 500);
    const auto bound = det ? rms::BoundType::kDeterministic : rms::BoundType::kBestEffort;
    request.desired.delay.type = bound;
    request.acceptable.delay.type = bound;
    request.desired.delay.a = msec(500);
    request.acceptable.delay.a = sec(30);
    f->tx = std::make_unique<transport::StreamSender>(
        *wan.node(static_cast<rms::HostId>(i + 1)).st,
        wan.node(static_cast<rms::HostId>(i + 1)).ports,
        rms::Label{100, 60 + static_cast<rms::PortId>(i)}, cfg, request);
    if (!f->tx->ok()) {
      std::printf("  (mixed sender %d rejected: %s)\n", i + 1,
                  f->tx->creation_error().message.c_str());
      continue;
    }
    f->feeder = std::make_unique<Feeder>(*f->tx, kPerSender);
    flows.push_back(std::move(f));
  }

  wan.sim.run_until(sec(90));

  MixedRow out{};
  std::size_t det_total = 0, be_total = 0, det_flows = 0;
  for (auto& f : flows) {
    if (f->det) {
      det_total += f->got;
      ++det_flows;
    } else {
      be_total += f->got;
      out.quenches += f->tx->stats().quench_signals;
    }
  }
  out.det_complete = det_flows == 0
                         ? 0.0
                         : static_cast<double>(det_total) /
                               (static_cast<double>(det_flows) * kPerSender);
  out.be_goodput_kbs =
      static_cast<double>(be_total) / to_seconds(wan.sim.now()) / 1e3;
  out.gateway_drops = wan.network->gateway_drops();
  return out;
}

CongestionRow run_tcp(bool quench) {
  sim::Simulator sim;
  std::vector<net::HostId> left, right;
  for (int i = 0; i < kSenders; ++i) left.push_back(static_cast<net::HostId>(i + 1));
  right.push_back(100);
  auto network = net::make_dumbbell(sim, congested_traits(), 71, left, right);
  network->enable_source_quench(quench);
  baseline::DatagramService datagrams(sim, *network);

  struct Host {
    std::unique_ptr<sim::CpuScheduler> cpu;
    rms::PortRegistry ports;
  };
  std::map<net::HostId, Host> hosts;
  for (net::HostId id : left) {
    hosts[id].cpu = std::make_unique<sim::CpuScheduler>(sim, sim::CpuPolicy::kFifo);
    datagrams.register_host(id, *hosts[id].cpu, hosts[id].ports);
  }
  hosts[100].cpu = std::make_unique<sim::CpuScheduler>(sim, sim::CpuPolicy::kFifo);
  datagrams.register_host(100, *hosts[100].cpu, hosts[100].ports);

  struct Flow {
    std::unique_ptr<baseline::TcpLikeReceiver> rx;
    std::unique_ptr<baseline::TcpLikeSender> tx;
    std::size_t got = 0;
    std::size_t written = 0;
    Time done_at = 0;
  };
  std::vector<std::unique_ptr<Flow>> flows;
  baseline::TcpLikeConfig cfg;
  cfg.window_bytes = 16 * 1024;
  cfg.mss = 500;
  cfg.retransmit_timeout = msec(300);
  for (int i = 0; i < kSenders; ++i) {
    auto f = std::make_unique<Flow>();
    f->rx = std::make_unique<baseline::TcpLikeReceiver>(
        datagrams, 100, 60 + static_cast<rms::PortId>(i), cfg);
    auto* raw = f.get();
    sim::Simulator* simp = &sim;
    f->rx->on_data([raw, simp](Bytes b) {
      raw->got += b.size();
      if (raw->done_at == 0 && raw->got >= kPerSender) raw->done_at = simp->now();
    });
    f->tx = std::make_unique<baseline::TcpLikeSender>(
        datagrams, static_cast<net::HostId>(i + 1),
        rms::Label{100, 60 + static_cast<rms::PortId>(i)}, cfg);
    flows.push_back(std::move(f));
  }

  // Keep every sender's buffer full until its quota is written.
  std::function<void()> feed = [&] {
    for (auto& f : flows) {
      while (f->written < kPerSender &&
             f->tx->write(patterned_bytes(
                            std::min<std::size_t>(4096, kPerSender - f->written),
                            f->written))
                 .ok()) {
        f->written += std::min<std::size_t>(4096, kPerSender - f->written);
      }
    }
    sim.after(msec(20), feed);
  };
  feed();
  sim.run_until(sec(90));

  CongestionRow out{};
  std::size_t total = 0;
  std::uint64_t retx = 0, quenches = 0;
  Time finished = 0;
  for (auto& f : flows) {
    total += f->got;
    retx += f->tx->stats().retransmissions;
    quenches += f->tx->stats().quenches;
    finished = std::max(finished, f->done_at == 0 ? sim.now() : f->done_at);
  }
  out.goodput_kbs = static_cast<double>(total) / to_seconds(finished) / 1e3;
  out.gateway_drops = network->gateway_drops();
  out.retransmissions = retx;
  out.completed_frac =
      static_cast<double>(total) / (static_cast<double>(kSenders) * kPerSender);
  out.quenches = quenches;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Gate gate(argc, argv, Gate::Better::kHigher, 0.001);

  title("C8", "gateway congestion: RMS capacity vs TCP-like + source quench");

  std::printf("%d senders x %zu KB through one 32 KB-buffer gateway, T1 trunk\n\n",
              kSenders, kPerSender / 1024);
  std::printf("%-26s %12s %12s %12s %12s %10s\n", "regime", "goodput kB/s",
              "gw drops", "retransmits", "complete", "quenches");

  BenchJson json("c8_congestion");
  auto report = [&](const char* regime, const CongestionRow& r, bool tcp) {
    if (tcp) {
      std::printf("%-26s %12.1f %12llu %12llu %11.1f%% %10llu\n", regime,
                  r.goodput_kbs, static_cast<unsigned long long>(r.gateway_drops),
                  static_cast<unsigned long long>(r.retransmissions),
                  100.0 * r.completed_frac,
                  static_cast<unsigned long long>(r.quenches));
    } else {
      std::printf("%-26s %12.1f %12llu %12llu %11.1f%% %10s\n", regime,
                  r.goodput_kbs, static_cast<unsigned long long>(r.gateway_drops),
                  static_cast<unsigned long long>(r.retransmissions),
                  100.0 * r.completed_frac, "-");
    }
    const std::map<std::string, std::string> tags = {{"regime", regime}};
    json.record("goodput", r.goodput_kbs, "kB/s", tags);
    json.record("gateway_drops", static_cast<double>(r.gateway_drops), "packets",
                tags);
    json.record("completed_fraction", r.completed_frac, "fraction", tags);
  };

  const CongestionRow det_row = run_rms(rms::BoundType::kDeterministic);
  const CongestionRow be_row = run_rms(rms::BoundType::kBestEffort);
  report("RMS deterministic", det_row, false);
  report("RMS best-effort", be_row, false);
  report("RMS deterministic + flood",
         run_rms(rms::BoundType::kDeterministic, {.flood = true}), false);
  report("RMS best-effort + flood",
         run_rms(rms::BoundType::kBestEffort, {.flood = true}), false);
  report("TCP-like + source quench", run_tcp(true), true);
  report("TCP-like, no quench", run_tcp(false), true);

  // Congestion-control regimes (DESIGN.md §13). The overload pair gives
  // every best-effort sender a 64 KB window — 6 x 64 KB against 32 KB of
  // gateway buffer — first thrashing unpaced, then under the model-based
  // enforcer with gateway source quench feeding the model.
  const RmsOpts overload_unpaced{.capacity = 64 * 1024};
  const RmsOpts overload_paced{.mode = transport::CapacityMode::kModel,
                               .capacity = 64 * 1024,
                               .quench = true};
  const RmsOpts flood_paced{.flood = true,
                            .mode = transport::CapacityMode::kModel,
                            .quench = true};
  const CongestionRow ov_un = run_rms(rms::BoundType::kBestEffort, overload_unpaced);
  const CongestionRow ov_cc = run_rms(rms::BoundType::kBestEffort, overload_paced);
  const CongestionRow fl_cc = run_rms(rms::BoundType::kBestEffort, flood_paced);
  report("BE overload 64K, unpaced", ov_un, true);
  report("BE overload 64K + cc", ov_cc, true);
  report("BE + flood + cc", fl_cc, true);

  const MixedRow mixed = run_mixed();
  std::printf("%-26s %12.1f %12llu %12s %11.1f%% %10llu\n", "det + paced BE mix",
              mixed.be_goodput_kbs,
              static_cast<unsigned long long>(mixed.gateway_drops), "-",
              100.0 * mixed.det_complete,
              static_cast<unsigned long long>(mixed.quenches));
  json.record("gateway_drops", static_cast<double>(mixed.gateway_drops),
              "packets", {{"regime", "det + paced BE mix"}});
  json.record("det_completed_fraction", mixed.det_complete, "fraction",
              {{"regime", "det + paced BE mix"}});
  json.record("goodput", mixed.be_goodput_kbs, "kB/s",
              {{"regime", "det + paced BE mix"}});

  // Gate metrics: all higher-is-better.
  const double drop_cut =
      ov_un.gateway_drops == 0
          ? 1.0
          : 1.0 - static_cast<double>(ov_cc.gateway_drops) /
                      static_cast<double>(ov_un.gateway_drops);
  std::printf("\noverload drop cut with cc pacing: %.1f%% (%llu -> %llu)\n",
              100.0 * drop_cut,
              static_cast<unsigned long long>(ov_un.gateway_drops),
              static_cast<unsigned long long>(ov_cc.gateway_drops));
  json.record("overload_drop_cut", drop_cut, "fraction", {});

  std::map<std::string, double> current;
  current["overload_drop_cut"] = drop_cut;
  current["overload_cc_goodput_kbs"] = ov_cc.goodput_kbs;
  current["flood_cc_goodput_kbs"] = fl_cc.goodput_kbs;
  current["det_mix_complete"] = mixed.det_complete;
  // Continuous, higher-is-better drop bound for the mixed world: the
  // model's startup probing costs a handful of drops before the first
  // quench backoff; this key fails the gate if that handful grows.
  current["det_mix_drop_headroom"] =
      1.0 / (1.0 + static_cast<double>(mixed.gateway_drops));

  note("\nShape check (§4.4): RMS capacity enforcement — sized against the");
  note("gateway's buffers at admission — keeps drops at zero when everyone");
  note("conforms; under a hostile flood only the *reserved* (deterministic)");
  note("streams keep their share, while unreserved streams and the TCP-like");
  note("baseline thrash the buffers; source quench only damps the thrashing");
  note("after drops already happened: \"an ad hoc and often ineffective");
  note("solution\". The model-based enforcer (DESIGN.md §13) turns the same");
  note("quench signal into a rate model: the 64 KB-window overload keeps its");
  note("goodput with far fewer drops, and paced best-effort bulk shares the");
  note("gateway with deterministic reservations without touching them.");

  return gate.finish(current, "cc");
}
