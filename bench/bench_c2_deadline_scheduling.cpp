// C2 (§2.5, §4.1): deadline vs FIFO vs static-priority packet queueing.
//
// "If packet queueing ... is done using RMS-specified deadlines, then a
// low-delay packet can be sent before high-delay packets that would
// otherwise cause it to be delivered late." Four voice calls share a
// segment with four saturating bulk streams; only the interface-queue
// discipline changes between runs. Shape: deadline queueing keeps the
// voice bound with near-zero misses at no measurable cost to bulk;
// FIFO misses heavily; the coarse priority classes recover most but not
// all of the benefit (§5: deadlines beat priorities).
#include "bench_util.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct Row {
  double voice_mean_ms;
  double voice_p99_ms;
  double voice_miss;
  double bulk_mbps;
};

Row run(net::Discipline discipline) {
  auto lan = node::ethernet_world(4, net::ethernet_traits(), 11, discipline);

  // Voice calls 1->2, 3->4, 2->3, 4->1.
  struct Call {
    std::unique_ptr<rms::Rms> stream;
    std::unique_ptr<rms::Port> port;
    std::unique_ptr<workload::PacedSource> src;
  };
  Samples voice_ms;
  telemetry::GuaranteeLedger voice_ledger;
  std::vector<Call> calls;
  const std::pair<rms::HostId, rms::HostId> pairs[] = {{1, 2}, {3, 4}, {2, 3}, {4, 1}};
  rms::PortId port_id = 70;
  for (auto [from, to] : pairs) {
    Call call;
    call.port = std::make_unique<rms::Port>();
    lan.node(to).ports.bind(port_id, call.port.get());
    auto created =
        lan.node(from).st->create(workload::voice_request(msec(40)), {to, port_id});
    call.stream = std::move(created).value();
    voice_ledger.open(port_id, "voice", call.stream->params(), from, to);
    call.port->set_handler([&voice_ms, &voice_ledger, &lan, id = port_id](rms::Message m) {
      const Time delay = lan.sim.now() - m.sent_at;
      voice_ms.add(to_millis(delay));
      voice_ledger.on_delivery(id, delay, m.size());
    });
    auto* stream = call.stream.get();
    call.src = std::make_unique<workload::PacedSource>(
        lan.sim, workload::kVoiceFrameInterval, workload::kVoiceFrameBytes,
        [stream](Bytes f) {
          rms::Message m;
          m.data = std::move(f);
          (void)stream->send(std::move(m));
        });
    calls.push_back(std::move(call));
    ++port_id;
  }

  // Bulk background: 1->3, 2->4, 3->1, 4->2, saturating.
  struct Bulk {
    std::unique_ptr<transport::StreamReceiver> rx;
    std::unique_ptr<transport::StreamSender> tx;
    std::unique_ptr<Feeder> feeder;
    std::size_t got = 0;
  };
  std::vector<std::unique_ptr<Bulk>> bulks;
  const std::pair<rms::HostId, rms::HostId> bulk_pairs[] = {{1, 3}, {2, 4}, {3, 1}, {4, 2}};
  for (auto [from, to] : bulk_pairs) {
    auto b = std::make_unique<Bulk>();
    transport::StreamConfig cfg;
    cfg.receiver_flow_control = false;
    b->rx = std::make_unique<transport::StreamReceiver>(*lan.node(to).st,
                                                        lan.node(to).ports, 60, cfg);
    auto* raw = b.get();
    b->rx->on_data([raw](Bytes data) { raw->got += data.size(); });
    b->tx = std::make_unique<transport::StreamSender>(
        *lan.node(from).st, lan.node(from).ports, rms::Label{to, 60}, cfg,
        transport::bulk_data_request(48 * 1024, 1400));
    b->feeder = std::make_unique<Feeder>(*b->tx);
    bulks.push_back(std::move(b));
  }

  for (auto& call : calls) call.src->start();
  lan.sim.run_until(sec(15));
  for (auto& call : calls) call.src->stop();
  lan.sim.run_for(sec(1));

  std::size_t bulk_total = 0;
  for (auto& b : bulks) bulk_total += b->got;

  Row out{};
  out.voice_mean_ms = voice_ms.mean();
  out.voice_p99_ms = voice_ms.percentile(0.99);
  out.voice_miss = miss_fraction(voice_ledger);
  out.bulk_mbps = static_cast<double>(bulk_total) * 8.0 / 15.0 / 1e6;
  return out;
}

}  // namespace

int main() {
  title("C2", "interface queue discipline under voice + saturating bulk");

  BenchJson json("c2_deadline_scheduling");
  std::printf("%-12s %14s %14s %16s %12s\n", "discipline", "voice mean ms",
              "voice p99 ms", "miss (A+B*size)", "bulk Mb/s");
  for (auto d : {net::Discipline::kDeadline, net::Discipline::kPriority,
                 net::Discipline::kFifo}) {
    const Row r = run(d);
    std::printf("%-12s %14.2f %14.2f %15.2f%% %12.2f\n", net::discipline_name(d),
                r.voice_mean_ms, r.voice_p99_ms, 100.0 * r.voice_miss, r.bulk_mbps);
    const std::map<std::string, std::string> params = {
        {"discipline", net::discipline_name(d)}};
    json.record("voice_mean_ms", r.voice_mean_ms, "ms", params);
    json.record("voice_p99_ms", r.voice_p99_ms, "ms", params);
    json.record("voice_miss_rate", r.voice_miss, "fraction", params);
    json.record("bulk_throughput", r.bulk_mbps, "Mb/s", params);
  }

  note("\nShape check: deadline queueing lets voice frames overtake queued");
  note("bulk packets (miss ~0%) while bulk throughput is unchanged; FIFO");
  note("queueing delays voice behind 1.4 KB bulk frames and misses the");
  note("bound. Static priorities protect voice too, but — having no notion");
  note("of absolute time — they starve the laziest class (the bulk acks)");
  note("and lose bulk throughput: \"compared to systems that use only");
  note("priorities ... deadlines optimize usage\" (§5).");
  return 0;
}
