// C6 (§2.3, §3.1): admission control per delay-bound type.
//
// Voice-class RMS requests arrive one at a time on a 10 Mb/s segment until
// rejected (or 200 accepted). Deterministic requests reserve their
// worst-case C/D; statistical requests reserve an effective bandwidth
// derived from declared load and burstiness; best-effort requests are
// never rejected. Then every admitted stream runs at its declared rate and
// the delivered quality is measured. Shape: deterministic admits fewest
// and delivers zero misses; statistical admits ~burstiness x more with
// bounded misses; best-effort admits everything and degrades unboundedly.
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct AdmissionRow {
  int admitted;
  int offered;
  double mean_ms;
  double p99_ms;
  double miss_rate;
};

AdmissionRow run(rms::BoundType type, int offered) {
  auto lan = node::ethernet_world(2, net::ethernet_traits(), 51);

  AdmissionRow out{};
  out.offered = offered;

  struct Stream {
    std::unique_ptr<rms::Rms> rms;
    std::unique_ptr<rms::Port> port;
    std::unique_ptr<workload::OnOffSource> source;
  };
  std::vector<Stream> streams;
  Samples delay_ms;
  telemetry::GuaranteeLedger ledger;
  const Time bound = msec(40);

  for (int i = 0; i < offered; ++i) {
    auto request = workload::voice_request(bound, /*statistical=*/true);
    request.desired.delay.type = type;
    request.acceptable.delay.type = type;
    // Bursty voice with silence suppression: mean on 300 ms, off 600 ms,
    // declared honestly (burstiness 3).
    request.desired.statistical.average_load_bps = 64'000.0 / 3.0;
    request.desired.statistical.burstiness = 3.0;
    request.acceptable.statistical = request.desired.statistical;

    Stream s;
    s.port = std::make_unique<rms::Port>();
    const rms::PortId port_id = 100 + static_cast<rms::PortId>(i);
    lan.node(2).ports.bind(port_id, s.port.get());

    auto created = lan.node(1).st->create(request, {2, port_id});
    if (!created) break;  // provider said no; stop offering
    s.rms = std::move(created).value();
    ledger.open(port_id, "voice", s.rms->params(), 1, 2);
    s.port->set_handler([&delay_ms, &ledger, &lan, port_id](rms::Message m) {
      const Time delay = lan.sim.now() - m.sent_at;
      delay_ms.add(to_millis(delay));
      ledger.on_delivery(port_id, delay, m.size());
    });
    auto* stream = s.rms.get();
    s.source = std::make_unique<workload::OnOffSource>(
        lan.sim, workload::kVoiceFrameInterval, workload::kVoiceFrameBytes,
        msec(300), msec(600), 1000 + static_cast<std::uint64_t>(i),
        [stream](Bytes f) {
          rms::Message m;
          m.data = std::move(f);
          (void)stream->send(std::move(m));
        });
    streams.push_back(std::move(s));
  }
  out.admitted = static_cast<int>(streams.size());

  for (auto& s : streams) s.source->start();
  lan.sim.run_until(sec(15));
  for (auto& s : streams) s.source->stop();
  lan.sim.run_for(sec(1));

  out.mean_ms = delay_ms.mean();
  out.p99_ms = delay_ms.percentile(0.99);
  out.miss_rate = miss_fraction(ledger);
  return out;
}

}  // namespace

int main() {
  title("C6", "admission control: deterministic vs statistical vs best-effort");
  BenchJson json("c6_admission");

  std::printf("%-16s %10s %10s %10s %10s %14s\n", "bound type", "offered",
              "admitted", "mean ms", "p99 ms", "miss rate");
  for (auto type : {rms::BoundType::kDeterministic, rms::BoundType::kStatistical,
                    rms::BoundType::kBestEffort}) {
    const AdmissionRow r = run(type, 400);
    std::printf("%-16s %10d %10d %10.2f %10.2f %13.2f%%\n",
                rms::bound_type_name(type), r.offered, r.admitted, r.mean_ms,
                r.p99_ms, 100.0 * r.miss_rate);
    const std::map<std::string, std::string> params = {
        {"bound", rms::bound_type_name(type)}, {"offered", std::to_string(r.offered)}};
    json.record("admitted", r.admitted, "streams", params);
    json.record("delay_p99", r.p99_ms, "ms", params);
    json.record("miss_rate", r.miss_rate, "fraction", params);
  }

  note("\nShape check (§2.3): deterministic admission stops at the worst-case");
  note("capacity of the segment and the admitted calls never miss;");
  note("statistical admission exploits the declared burstiness to admit");
  note("roughly burstiness x more with a small miss probability; best-effort");
  note("admits every request and lets quality degrade with load.");
  return 0;
}
