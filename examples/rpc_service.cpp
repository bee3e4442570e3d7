// A replicated key-value service on RKOM (paper §3.3).
//
// Host 10 runs a key-value store exported over the user-level RPC facade;
// hosts 1-3 are clients issuing gets and puts across a lossy wide-area
// path. RKOM's four-stream channel keeps initial requests/replies on
// low-delay RMS while retransmissions ride the high-delay pair, and its
// at-most-once execution keeps the store consistent despite duplicate
// requests.
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "example_util.h"
#include "rkom/rkom.h"
#include "util/stats.h"

using namespace dash;

int main() {
  auto traits = net::internet_traits();
  traits.bit_error_rate = 2e-6;  // lossy long-haul: retransmissions will happen
  auto wan = node::dumbbell_world(/*left=*/{1, 2, 3}, /*right=*/{10}, traits);

  examples::print_header("Key-value service over RKOM (lossy WAN)");

  // --- server ---------------------------------------------------------
  rkom::RkomNode server_node(*wan.node(10).st, wan.node(10).ports);
  rkom::RpcServer server(server_node);
  std::map<std::string, std::string> store;
  std::uint64_t puts = 0;

  server.handle("kv.put", [&](BytesView args) {
    const std::string text = to_string(args);
    const auto eq = text.find('=');
    store[text.substr(0, eq)] = text.substr(eq + 1);
    ++puts;
    return to_bytes("ok");
  }, /*service_time=*/usec(200));

  server.handle("kv.get", [&](BytesView args) {
    auto it = store.find(to_string(args));
    return to_bytes(it == store.end() ? std::string("(nil)") : it->second);
  }, /*service_time=*/usec(100));

  // --- clients --------------------------------------------------------
  struct Client {
    std::unique_ptr<rkom::RkomNode> node;
    std::unique_ptr<rkom::RpcClient> rpc;
    Samples latency_ms;
    int completed = 0;
    int failed = 0;
    std::function<void(int)> issue;  ///< the closed loop's next operation
  };
  std::map<rms::HostId, Client> clients;
  for (rms::HostId id : {1u, 2u, 3u}) {
    auto& c = clients[id];
    c.node = std::make_unique<rkom::RkomNode>(*wan.node(id).st, wan.node(id).ports);
    c.rpc = std::make_unique<rkom::RpcClient>(*c.node, /*server=*/10);
  }

  // Closed loop per client: put then get, 100 operations each.
  for (auto& [id, client] : clients) {
    auto* c = &client;
    const auto host = id;
    c->issue = [c, host, &wan](int remaining) {
      if (remaining == 0) return;
      const Time started = wan.sim.now();
      const std::string key =
          "k" + std::to_string(host) + "." + std::to_string(remaining % 10);
      const bool is_put = remaining % 2 == 0;
      auto done = [c, remaining, started, &wan](Result<Bytes> r) {
        if (r.ok()) {
          ++c->completed;
          c->latency_ms.add(to_millis(wan.sim.now() - started));
        } else {
          ++c->failed;
        }
        // Think time before the next operation.
        wan.sim.after(msec(20), [c, remaining] { c->issue(remaining - 1); });
      };
      if (is_put) {
        c->rpc->call("kv.put", to_bytes(key + "=v" + std::to_string(remaining)),
                     done);
      } else {
        c->rpc->call("kv.get", to_bytes(key), done);
      }
    };
    c->issue(100);
  }

  wan.sim.run_until(sec(120));

  examples::print_header("Results");
  std::printf("%-8s %10s %8s %12s %10s %10s\n", "client", "completed", "failed",
              "mean ms", "p99 ms", "max ms");
  for (auto& [id, c] : clients) {
    std::printf("%-8llu %10d %8d %12.1f %10.1f %10.1f\n",
                static_cast<unsigned long long>(id), c.completed, c.failed,
                c.latency_ms.mean(), c.latency_ms.percentile(0.99),
                c.latency_ms.max());
  }
  const auto& ss = server_node.stats();
  std::printf("\nserver executions:       %llu (puts stored: %llu)\n",
              static_cast<unsigned long long>(ss.executions),
              static_cast<unsigned long long>(puts));
  std::printf("duplicates suppressed:   %llu (at-most-once held)\n",
              static_cast<unsigned long long>(ss.duplicate_requests));
  std::uint64_t retransmissions = 0;
  for (auto& [id, c] : clients) retransmissions += c.node->stats().request_retransmissions;
  std::printf("request retransmissions: %llu (loss recovered on high-delay RMS)\n",
              static_cast<unsigned long long>(retransmissions));
  std::printf("store size:              %zu keys\n", store.size());
  return 0;
}
