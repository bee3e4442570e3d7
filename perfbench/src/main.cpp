// dashbench: the DASH stack benchmark binary.
//
//   dashbench --workload udp_bulk|udp_rpc|sim_lan --seed N --seconds S
//             --trace 0|1 [--tiny] [--out-dir DIR]
//
// Prints human-readable notes (lines starting with '#'), then one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer metrics and writes the
// span file into --out-dir. Exit code 0 when every check passed, 1 when a
// check failed, 2 on bad usage, 3 when the workload cannot run here
// (loopback UDP sockets unavailable).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "net/udp/udp.h"
#include "util/alloc_count.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "dashbench: %s\nusage: dashbench --workload udp_bulk|udp_rpc|"
               "sim_lan --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  if (!dash::alloc_count::instrumented()) return usage("allocator not instrumented");

  const bool udp = o.workload == "udp_bulk" || o.workload == "udp_rpc";
  if (!udp && o.workload != "sim_lan") return usage("unknown workload");
  if (udp && !dash::net::udp_available()) {
    std::printf("# %s skipped: loopback UDP sockets are unavailable here\n",
                o.workload.c_str());
    return 3;
  }
  if (o.trace) {
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    if (ec) return usage(("cannot create " + o.out_dir).c_str());
  }

  Report report(o.trace);
  if (o.workload == "udp_bulk") {
    run_udp_bulk(o, report);
  } else if (o.workload == "udp_rpc") {
    run_udp_rpc(o, report);
  } else {
    run_sim_lan(o, report);
  }
  if (o.trace) {
    run_micro(o, report);
    report.layer("proc.peak_rss_MB", peak_rss_mb());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
