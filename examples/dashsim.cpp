// dashsim — a configurable scenario runner for the DASH stack.
//
//   ./dashsim --scenario mixed --seconds 20 --discipline deadline
//   ./dashsim --scenario voice --calls 8 --ber 1e-6 --seed 7
//   ./dashsim --scenario bulk --wan --trusted
//   ./dashsim --scenario rpc --wan --seconds 30
//
// Scenarios:
//   voice  N voice calls with statistical bounds; reports per-call delay
//          statistics and bound compliance.
//   bulk   one reliable transfer, saturating; reports goodput and the
//          flow-control accounting.
//   rpc    a closed-loop RKOM workload; reports call latency.
//   mixed  all three at once (the Figure-2 stack).
//
// Options:
//   --wan                 run on the T1 dumbbell instead of the Ethernet
//   --ring                run on a 4 Mb/s token ring instead
//   --discipline D        deadline | fifo | priority   (default deadline)
//   --cpu P               edf | fifo | priority        (default edf)
//   --seconds N           simulated duration           (default 10)
//   --calls N             voice call count             (default 4)
//   --ber X               medium bit error rate        (default 0)
//   --trusted             mark the network trusted (security elision)
//   --seed S              simulation seed              (default 1)
//   --trace               print the sender ST's event trace at the end
//   --bill                print per-host RMS usage charges (§2.4/§5)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "example_util.h"
#include "net/token_ring.h"
#include "netrms/accounting.h"
#include "rkom/rkom.h"
#include "sim/trace.h"
#include "telemetry/ledger.h"
#include "transport/stream.h"
#include "util/stats.h"
#include "workload/workload.h"

using namespace dash;

namespace {

struct Options {
  std::string scenario = "mixed";
  bool wan = false;
  bool ring = false;
  net::Discipline discipline = net::Discipline::kDeadline;
  sim::CpuPolicy cpu = sim::CpuPolicy::kEdf;
  int seconds = 10;
  int calls = 4;
  double ber = 0.0;
  bool trusted = false;
  std::uint64_t seed = 1;
  bool trace = false;
  bool bill = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario voice|bulk|rpc|mixed] [--wan]\n"
               "          [--discipline deadline|fifo|priority] [--cpu edf|fifo|priority]\n"
               "          [--seconds N] [--calls N] [--ber X] [--trusted] [--seed S]\n"
               "          [--ring] [--trace] [--bill]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      opt.scenario = value();
    } else if (arg == "--wan") {
      opt.wan = true;
    } else if (arg == "--ring") {
      opt.ring = true;
    } else if (arg == "--discipline") {
      const std::string d = value();
      if (d == "deadline") {
        opt.discipline = net::Discipline::kDeadline;
      } else if (d == "fifo") {
        opt.discipline = net::Discipline::kFifo;
      } else if (d == "priority") {
        opt.discipline = net::Discipline::kPriority;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--cpu") {
      const std::string p = value();
      if (p == "edf") {
        opt.cpu = sim::CpuPolicy::kEdf;
      } else if (p == "fifo") {
        opt.cpu = sim::CpuPolicy::kFifo;
      } else if (p == "priority") {
        opt.cpu = sim::CpuPolicy::kPriority;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(value());
    } else if (arg == "--calls") {
      opt.calls = std::atoi(value());
    } else if (arg == "--ber") {
      opt.ber = std::atof(value());
    } else if (arg == "--trusted") {
      opt.trusted = true;
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--bill") {
      opt.bill = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.seconds <= 0 || opt.calls <= 0) usage(argv[0]);
  return opt;
}

/// The medium --ring / --wan (default: Ethernet) selects, with --ber and
/// --trusted applied to its traits.
node::MediumFactory<net::Network> medium(const Options& opt, int hosts) {
  auto tune = [&opt](net::NetworkTraits traits) {
    traits.bit_error_rate = opt.ber;
    traits.trusted = opt.trusted;
    return traits;
  };
  if (opt.ring) {
    return [traits = tune(net::token_ring_traits("token-ring", hosts)), opt](
               sim::Simulator& sim) {
      return std::make_unique<net::TokenRingNetwork>(
          sim, traits, opt.seed, net::TokenRingNetwork::RingConfig{}, opt.discipline);
    };
  }
  if (opt.wan) {
    std::vector<rms::HostId> left, right;
    for (int i = 1; i <= hosts; ++i) {
      (i % 2 == 1 ? left : right).push_back(static_cast<rms::HostId>(i));
    }
    return [traits = tune(net::internet_traits()), left, right,
            opt](sim::Simulator& sim) {
      return net::make_dumbbell(sim, traits, opt.seed, left, right, opt.discipline);
    };
  }
  return node::ethernet(tune(net::ethernet_traits()), opt.seed, opt.discipline);
}

using World = node::World<>;

struct VoiceCall {
  std::unique_ptr<rms::Rms> stream;
  std::unique_ptr<rms::Port> port;
  std::unique_ptr<Samples> delays_ns;  ///< for the mean, p99 and max columns
  const telemetry::StreamAccount* account = nullptr;  ///< misses and verdict
  std::unique_ptr<workload::PacedSource> source;
};

std::vector<VoiceCall> start_voice(World& world, telemetry::GuaranteeLedger& ledger,
                                   int calls) {
  std::vector<VoiceCall> out;
  rms::PortId port_id = 70;
  for (int i = 0; i < calls; ++i) {
    const rms::HostId from = static_cast<rms::HostId>(1 + (i % 2));
    const rms::HostId to = static_cast<rms::HostId>(2 - (i % 2));
    VoiceCall call;
    call.port = std::make_unique<rms::Port>();
    world.node(to).ports.bind(port_id, call.port.get());
    auto created =
        world.node(from).st->create(workload::voice_request(msec(40)), {to, port_id});
    if (!created) {
      std::printf("voice call %d rejected: %s\n", i + 1,
                  created.error().message.c_str());
      ++port_id;
      continue;
    }
    call.stream = std::move(created).value();
    call.account = &ledger.open(port_id, "voice " + std::to_string(i + 1),
                                call.stream->params(), from, to);
    call.delays_ns = std::make_unique<Samples>();
    call.port->set_handler([&world, &ledger, id = port_id,
                            delays = call.delays_ns.get()](rms::Message m) {
      const Time delay = world.sim.now() - m.sent_at;
      delays->add(static_cast<double>(delay));
      ledger.on_delivery(id, delay, m.size());
    });
    auto* stream = call.stream.get();
    call.source = std::make_unique<workload::PacedSource>(
        world.sim, workload::kVoiceFrameInterval, workload::kVoiceFrameBytes,
        [stream](Bytes f) {
          rms::Message m;
          m.data = std::move(f);
          (void)stream->send(std::move(m));
        });
    // Start after stream establishment so per-message delays measure the
    // steady state, not the control-channel handshake.
    world.sim.after(msec(500), [src = call.source.get()] { src->start(); });
    out.push_back(std::move(call));
    ++port_id;
  }
  return out;
}

void report_voice(std::vector<VoiceCall>& calls) {
  std::printf("\nvoice: %zu call(s)\n", calls.size());
  std::printf("%-6s %8s %9s %9s %9s %10s %10s\n", "call", "frames", "mean ms",
              "p99 ms", "max ms", "misses", "guarantee");
  int i = 0;
  for (auto& c : calls) {
    c.source->stop();
    Samples& d = *c.delays_ns;
    std::printf("%-6d %8zu %9.2f %9.2f %9.2f %10llu %10s\n", ++i, d.count(),
                d.mean() / 1e6, d.percentile(0.99) / 1e6, d.max() / 1e6,
                static_cast<unsigned long long>(c.account->misses),
                c.account->guarantee_holds() ? "held" : "VIOLATED");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool voice_on = opt.scenario == "voice" || opt.scenario == "mixed";
  const bool bulk_on = opt.scenario == "bulk" || opt.scenario == "mixed";
  const bool rpc_on = opt.scenario == "rpc" || opt.scenario == "mixed";
  if (!voice_on && !bulk_on && !rpc_on) usage(argv[0]);

  World world({medium(opt, 4)}, node::host_ids(4), {.cpu_policy = opt.cpu});
  std::printf("dashsim: scenario=%s network=%s discipline=%s cpu=%s seconds=%d "
              "ber=%g trusted=%d seed=%llu\n",
              opt.scenario.c_str(),
              opt.ring ? "token-ring" : (opt.wan ? "wan" : "lan"),
              net::discipline_name(opt.discipline), sim::cpu_policy_name(opt.cpu),
              opt.seconds, opt.ber, opt.trusted ? 1 : 0,
              static_cast<unsigned long long>(opt.seed));

  sim::Trace trace;
  if (opt.trace) world.node(1).st->set_trace(&trace);
  netrms::Accounting accounting;
  if (opt.bill) world.fabric->set_accounting(&accounting);

  telemetry::GuaranteeLedger ledger;
  std::vector<VoiceCall> voice;
  if (voice_on) voice = start_voice(world, ledger, opt.calls);

  // Bulk 1 -> 4 (same side pairing avoided on WAN by 1/4 split).
  std::unique_ptr<transport::StreamReceiver> bulk_rx;
  std::unique_ptr<transport::StreamSender> bulk_tx;
  std::size_t bulk_bytes = 0;
  if (bulk_on) {
    transport::StreamConfig cfg;
    cfg.message_size = opt.wan ? 500 : 1400;
    bulk_rx = std::make_unique<transport::StreamReceiver>(
        *world.node(4).st, world.node(4).ports, 60, cfg);
    bulk_rx->on_data([&](Bytes b) { bulk_bytes += b.size(); });
    bulk_tx = std::make_unique<transport::StreamSender>(
        *world.node(1).st, world.node(1).ports, rms::Label{4, 60}, cfg,
        transport::bulk_data_request(opt.wan ? 16 * 1024 : 64 * 1024,
                                     cfg.message_size));
    if (!bulk_tx->ok()) {
      std::printf("bulk stream rejected: %s\n", bulk_tx->creation_error().message.c_str());
      bulk_tx.reset();
    } else {
      auto* tx = bulk_tx.get();
      auto feed = std::make_shared<std::function<void()>>();
      *feed = [tx, &bulk_bytes] {
        while (tx->write(patterned_bytes(4096, bulk_bytes)).ok()) {
        }
      };
      tx->on_writable([feed] { (*feed)(); });
      (*feed)();
    }
  }

  // RPC 3 -> 2.
  std::unique_ptr<rkom::RkomNode> rpc_client, rpc_server;
  Samples rpc_ms;
  int rpc_done = 0;
  std::function<void()> rpc_loop;
  if (rpc_on) {
    rpc_client = std::make_unique<rkom::RkomNode>(*world.node(3).st,
                                                  world.node(3).ports);
    rpc_server = std::make_unique<rkom::RkomNode>(*world.node(2).st,
                                                  world.node(2).ports);
    rpc_server->register_operation(1, {[](BytesView in) {
      return Bytes(in.begin(), in.end());
    }, usec(200)});
    rpc_loop = [&world, &rpc_ms, &rpc_done, &rpc_loop, client = rpc_client.get()] {
      const Time t0 = world.sim.now();
      client->call(2, 1, patterned_bytes(128, 1), [&, t0](Result<Bytes> r) {
        if (r.ok()) {
          ++rpc_done;
          rpc_ms.add(to_millis(world.sim.now() - t0));
        }
        world.sim.after(msec(25), [&rpc_loop] { rpc_loop(); });
      });
    };
    rpc_loop();
  }

  world.sim.run_until(sec(opt.seconds));
  for (auto& c : voice) c.source->stop();
  world.sim.run_for(msec(500));

  // ------------------------------------------------------------ report
  if (voice_on) report_voice(voice);
  if (bulk_on && bulk_tx != nullptr) {
    std::printf("\nbulk: %.2f MB delivered, %.1f kB/s goodput, %llu retransmits, "
                "%llu blocked writes\n",
                static_cast<double>(bulk_bytes) / 1e6,
                static_cast<double>(bulk_bytes) / opt.seconds / 1e3,
                static_cast<unsigned long long>(bulk_tx->stats().retransmissions),
                static_cast<unsigned long long>(bulk_tx->stats().write_blocked));
  }
  if (rpc_on) {
    std::printf("\nrpc: %d calls, mean %.2f ms, p99 %.2f ms\n", rpc_done,
                rpc_ms.mean(), rpc_ms.percentile(0.99));
  }
  const auto& st1 = world.node(1).st->stats();
  std::printf("\nsender ST: %llu packets for %llu components (%llu piggybacked), "
              "%llu B encrypted, %llu B MACed\n",
              static_cast<unsigned long long>(st1.network_messages),
              static_cast<unsigned long long>(st1.components_sent),
              static_cast<unsigned long long>(st1.piggybacked),
              static_cast<unsigned long long>(st1.bytes_encrypted),
              static_cast<unsigned long long>(st1.bytes_macced));
  const auto& net_stats = world.network->stats();
  std::printf("network: %llu delivered, %llu dropped\n",
              static_cast<unsigned long long>(net_stats.delivered),
              static_cast<unsigned long long>(net_stats.dropped));

  if (opt.bill) {
    std::printf("\nRMS usage charges (abstract units; setup + parameters x "
                "connect time + bytes, §5):\n");
    for (const auto& node : world.nodes) {
      std::printf("  host %llu: %10.2f\n",
                  static_cast<unsigned long long>(node->id),
                  accounting.bill(node->id, world.sim.now()));
    }
  }

  if (opt.trace) {
    std::printf("\n--- ST trace (host 1, first 40 records) ---\n");
    int shown = 0;
    for (const auto& r : trace.records()) {
      std::printf("%-12s %-14s %s\n", format_time(r.time).c_str(),
                  r.category.c_str(), r.detail.c_str());
      if (++shown == 40) break;
    }
  }
  return 0;
}
