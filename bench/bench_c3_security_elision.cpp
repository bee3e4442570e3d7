// C3 (§2.1, §2.5): security and checksum elision.
//
// The same privacy-requesting bulk workload runs over networks with
// different properties; the ST applies software mechanisms only where the
// network lacks them:
//
//   untrusted LAN              — software encryption + MAC (full cost)
//   link-encryption hardware   — encryption elided (§2.5 case 2)
//   trusted LAN                — everything elided (§2.5 case 3)
//   baseline datagrams         — no parameters: always checksums, even on
//                                hardware that already does (§2.1)
//
// Reported: goodput, sender CPU time per delivered kilobyte, and which
// mechanisms ran. Shape: elision recovers CPU and throughput step by step;
// the baseline pays its mandatory cost everywhere.
#include "bench_util.h"
#include "baseline/sliding_window.h"

using namespace dash;
using namespace dash::bench;

namespace {

struct Row {
  double goodput_kbs;
  double cpu_us_per_kb;
  std::uint64_t bytes_encrypted;
  std::uint64_t bytes_macced;
  bool private_on_wire;
};

Row run_rms(net::NetworkTraits traits) {
  auto lan = node::ethernet_world(2, traits, 21);
  net::Eavesdropper eve(*lan.network);

  auto request = transport::bulk_data_request(48 * 1024, 1400);
  request.desired.quality.privacy = true;
  request.acceptable.quality.privacy = true;
  request.desired.quality.authenticated = true;
  request.acceptable.quality.authenticated = true;

  transport::StreamConfig cfg;
  cfg.receiver_flow_control = false;
  transport::StreamReceiver rx(*lan.node(2).st, lan.node(2).ports, 60, cfg);
  std::size_t got = 0;
  rx.on_data([&](Bytes b) { got += b.size(); });
  transport::StreamSender tx(*lan.node(1).st, lan.node(1).ports, {2, 60}, cfg,
                             request);
  if (!tx.ok()) {
    std::printf("  (stream rejected: %s)\n", tx.creation_error().message.c_str());
    return {};
  }
  Feeder feeder(tx);
  lan.sim.run_until(sec(10));

  Row out{};
  out.goodput_kbs = static_cast<double>(got) / 10.0 / 1e3;
  out.cpu_us_per_kb = got ? to_seconds(lan.node(1).cpu->busy_time()) * 1e6 /
                                (static_cast<double>(got) / 1024.0)
                          : 0.0;
  out.bytes_encrypted = lan.node(1).st->stats().bytes_encrypted;
  out.bytes_macced = lan.node(1).st->stats().bytes_macced;
  out.private_on_wire = !eve.saw_plaintext(patterned_bytes(64, 0));
  return out;
}

Row run_baseline(net::NetworkTraits traits) {
  sim::Simulator sim;
  net::EthernetNetwork network(sim, traits, 21);
  baseline::DatagramService datagrams(sim, network);
  sim::CpuScheduler cpu1(sim, sim::CpuPolicy::kFifo), cpu2(sim, sim::CpuPolicy::kFifo);
  rms::PortRegistry ports1, ports2;
  datagrams.register_host(1, cpu1, ports1);
  datagrams.register_host(2, cpu2, ports2);

  baseline::TcpLikeConfig cfg;
  cfg.window_bytes = 48 * 1024;
  cfg.mss = 1400;
  baseline::TcpLikeReceiver rx(datagrams, 2, 9, cfg);
  std::size_t got = 0;
  rx.on_data([&](Bytes b) { got += b.size(); });
  baseline::TcpLikeSender tx(datagrams, 1, {2, 9}, cfg);

  std::size_t written = 0;
  std::function<void()> feed = [&] {
    while (tx.write(patterned_bytes(4096, written)).ok()) written += 4096;
    sim.after(msec(5), feed);
  };
  feed();
  sim.run_until(sec(10));

  Row out{};
  out.goodput_kbs = static_cast<double>(got) / 10.0 / 1e3;
  out.cpu_us_per_kb =
      got ? to_seconds(cpu1.busy_time()) * 1e6 / (static_cast<double>(got) / 1024.0)
          : 0.0;
  out.private_on_wire = false;  // datagrams cannot express privacy at all
  return out;
}

}  // namespace

int main() {
  title("C3", "security/checksum elision via RMS parameters");

  auto untrusted = net::ethernet_traits("untrusted");
  auto link_enc = net::ethernet_traits("link-encrypted");
  link_enc.link_encryption = true;
  auto trusted = net::ethernet_traits("trusted");
  trusted.trusted = true;
  auto hw_checksum = net::ethernet_traits("hw-checksum");
  hw_checksum.hardware_checksum = true;

  std::printf("%-26s %12s %14s %12s %10s %9s\n", "configuration", "goodput kB/s",
              "CPU us/KB", "encrypted B", "MACed B", "private");

  struct Case {
    const char* name;
    net::NetworkTraits traits;
  };
  for (const Case& c : {Case{"RMS / untrusted LAN", untrusted},
                        Case{"RMS / link encryption", link_enc},
                        Case{"RMS / trusted LAN", trusted}}) {
    const Row r = run_rms(c.traits);
    std::printf("%-26s %12.1f %14.1f %12llu %10llu %9s\n", c.name, r.goodput_kbs,
                r.cpu_us_per_kb, static_cast<unsigned long long>(r.bytes_encrypted),
                static_cast<unsigned long long>(r.bytes_macced),
                r.private_on_wire ? "yes" : "no (ok)");
  }
  {
    const Row r = run_baseline(untrusted);
    std::printf("%-26s %12.1f %14.1f %12s %10s %9s\n",
                "datagram+TCP-like (always)", r.goodput_kbs, r.cpu_us_per_kb,
                "-", "-", "no");
    const Row r2 = run_baseline(hw_checksum);
    std::printf("%-26s %12.1f %14.1f %12s %10s %9s\n",
                "  ... on hw-checksum net", r2.goodput_kbs, r2.cpu_us_per_kb, "-",
                "-", "no");
  }

  note("\nShape check: software crypto dominates CPU on the untrusted LAN;");
  note("link-level encryption hardware elides the cipher (MAC remains),");
  note("and a trusted network elides everything — per-KB CPU falls in steps.");
  note("The baseline pays its mandatory checksum identically on both plain");
  note("and hardware-checksumming networks: it has no way to learn (§2.1).");
  return 0;
}
