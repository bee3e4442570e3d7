#include "baseline/datagram.h"

#include "net/internet.h"
#include "netrms/cost_model.h"
#include "util/checksum.h"
#include "util/serialize.h"

namespace dash::baseline {
namespace {
constexpr std::uint8_t kDatagramTag = 0xDA;
}

DatagramService::DatagramService(sim::Simulator& sim, net::Network& network)
    : sim_(sim), network_(network) {}

void DatagramService::register_host(HostId host, sim::CpuScheduler& cpu,
                                    rms::PortRegistry& ports) {
  hosts_[host] = HostEntry{&cpu, &ports, {}};
  network_.attach(host, [this, host](net::Packet p) { receive(host, std::move(p)); });
}

void DatagramService::on_quench(HostId host, std::function<void()> cb) {
  auto it = hosts_.find(host);
  if (it != hosts_.end()) it->second.quench_cb = std::move(cb);
}

void DatagramService::bind_port(HostId host, rms::PortId id, rms::Port* port) {
  auto it = hosts_.find(host);
  if (it != hosts_.end()) it->second.ports->bind(id, port);
}

void DatagramService::unbind_port(HostId host, rms::PortId id) {
  auto it = hosts_.find(host);
  if (it != hosts_.end()) it->second.ports->unbind(id);
}

rms::PortId DatagramService::allocate_port(HostId host) {
  auto it = hosts_.find(host);
  return it != hosts_.end() ? it->second.ports->allocate() : 0;
}

std::uint64_t DatagramService::max_payload() const {
  return network_.traits().max_packet_bytes > kDatagramHeaderBytes
             ? network_.traits().max_packet_bytes - kDatagramHeaderBytes
             : 0;
}

void DatagramService::send(HostId src, rms::PortId src_port, const Label& target,
                           Bytes data) {
  auto it = hosts_.find(src);
  if (it == hosts_.end() || data.size() > max_payload()) return;

  // Mandatory software checksum — paid even on hardware that already
  // validates frames (the elision the RMS parameters enable is impossible
  // here).
  const netrms::CostModel cost;
  const Time cpu_cost = cost.message_cost(data.size(), /*checksum=*/true,
                                          /*crypto=*/false, /*mac=*/false);
  it->second.cpu->submit(
      kTimeNever, cpu_cost,
      [this, src, src_port, target, data = std::move(data)]() mutable {
        Bytes wire;
        wire.reserve(kDatagramHeaderBytes + data.size());
        Writer w(wire);
        w.u8(kDatagramTag);
        w.u64(src_port);
        w.u64(target.port);
        w.u32(static_cast<std::uint32_t>(data.size()));
        w.u16(internet_checksum(data));
        w.bytes(data);

        net::Packet p;
        p.src = src;
        p.dst = target.host;
        p.deadline = kTimeNever;  // no deadlines in this world
        p.payload = std::move(wire);
        ++stats_.sent;
        network_.send(std::move(p));
      });
}

void DatagramService::receive(HostId host, net::Packet p) {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) return;

  if (p.stream == net::InternetNetwork::kQuenchStream) {
    ++stats_.quenches_delivered;
    if (it->second.quench_cb) it->second.quench_cb();
    return;
  }

  const std::size_t payload =
      p.size() > kDatagramHeaderBytes ? p.size() - kDatagramHeaderBytes : 0;
  const netrms::CostModel cost;
  const Time cpu_cost = cost.message_cost(payload, /*checksum=*/true, false, false);
  it->second.cpu->submit(kTimeNever, cpu_cost,
                         [this, host, p = std::move(p)]() mutable {
                           process(host, std::move(p));
                         });
}

void DatagramService::process(HostId host, net::Packet p) {
  Reader r(p.payload);
  auto tag = r.u8();
  auto src_port = r.u64();
  auto dst_port = r.u64();
  auto length = r.u32();
  auto checksum = r.u16();
  if (!tag || *tag != kDatagramTag || !src_port || !dst_port || !length || !checksum) {
    ++stats_.checksum_drops;
    return;
  }
  // Zero-copy: deliver a slice of the packet buffer.
  Buffer data = p.payload.slice(r.pos(), p.payload.size() - r.pos());
  if (data.size() != *length || internet_checksum(data.view()) != *checksum) {
    ++stats_.checksum_drops;
    return;
  }

  auto it = hosts_.find(host);
  rms::Port* port = it->second.ports->find(*dst_port);
  if (port == nullptr) {
    ++stats_.no_port_drops;
    return;
  }
  rms::Message msg;
  msg.data = std::move(data);
  msg.source = Label{p.src, *src_port};
  msg.target = Label{host, *dst_port};
  ++stats_.delivered;
  port->deliver(std::move(msg), sim_.now());
}

}  // namespace dash::baseline
