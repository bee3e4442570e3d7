// Socket-backed network object: real UDP beneath the unchanged stack
// (DESIGN.md §16).
//
// The paper's networks are interchangeable abstract entities (§3.1);
// every fabric so far moves packets inside the simulator. UdpNetwork is
// the same `net::Network` interface bound to actual nonblocking UDP
// sockets on an rt::Driver event loop, so the exact ST / network-RMS /
// path-manager / cc code — timers and all — runs over a real kernel
// network path. Each locally bound host owns one socket; a HostId ↔
// sockaddr map plays the role of ARP. Datagrams carry the versioned
// wire codec of net/udp/wire.h; the codec CRC acts as the "hardware"
// checksum of udp_traits(), so damaged or malformed datagrams are
// counted into corrupted_dropped and never reach a sink.
//
// Batching: send() never issues a syscall — it encodes onto the source
// socket's backlog and schedules a zero-delay flush task, so every send
// in one event batch coalesces into one sendmmsg. EAGAIN parks the
// backlog on EPOLLOUT. Receive drains with recvmmsg in bounded rounds
// per readiness wakeup. A FaultHook interposes on delivery exactly as
// on the simulated media (verdict delays/duplicates ride the simulator
// queue, which the driver runs in wall time).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "net/udp/wire.h"
#include "rt/driver.h"
#include "util/result.h"

namespace dash::net {

/// Traits of the UDP backend: untrusted, no physical broadcast, hardware
/// checksum (the wire-codec CRC), error-free as seen above the codec.
NetworkTraits udp_traits(std::string name = "udp");

/// Capability probe: can this environment open and bind a loopback UDP
/// socket? Tests skip cleanly when it returns false (sandboxed CI).
bool udp_available();

class UdpNetwork final : public Network {
 public:
  struct UdpStats {
    std::uint64_t sockets_opened = 0;
    std::uint64_t datagrams_sent = 0;      ///< left via sendmmsg
    std::uint64_t datagrams_received = 0;  ///< arrived via recvmmsg
    std::uint64_t send_batches = 0;        ///< sendmmsg calls that sent > 0
    std::uint64_t recv_batches = 0;        ///< recvmmsg calls that got > 0
    std::uint64_t send_eagain = 0;         ///< backlog parked on EPOLLOUT
    std::uint64_t send_errors = 0;         ///< non-EAGAIN sendmmsg failures
    std::uint64_t recv_errors = 0;         ///< non-EAGAIN recvmmsg failures
    std::uint64_t max_send_backlog = 0;    ///< peak queued datagrams, one fd
    std::uint64_t unknown_dst = 0;         ///< no endpoint for Packet::dst
    std::uint64_t no_local_socket = 0;     ///< send from an unbound host
    std::uint64_t oversized = 0;           ///< payload > max_packet_bytes
    // Decode failures by cause; each also counts into corrupted_dropped.
    std::uint64_t decode_truncated = 0;
    std::uint64_t decode_bad_magic = 0;
    std::uint64_t decode_bad_version = 0;
    std::uint64_t decode_bad_length = 0;
    std::uint64_t decode_bad_checksum = 0;
  };

  explicit UdpNetwork(rt::Driver& driver, NetworkTraits traits = udp_traits());
  ~UdpNetwork() override;

  /// Opens a nonblocking UDP socket for `host` bound to ip:port (port 0 =
  /// ephemeral; read back with local_port) and registers it with the
  /// driver. Must precede sends from `host`. attach() on an unbound host
  /// calls this with 127.0.0.1:0 implicitly.
  Status bind_endpoint(HostId host, const std::string& ip,
                       std::uint16_t port);

  /// Bound port of a local host's socket; 0 if `host` has no socket.
  std::uint16_t local_port(HostId host) const;

  void attach(HostId host, PacketSink sink) override;
  bool attached(HostId host) const override;
  bool send(Packet p) override;

  const UdpStats& udp_stats() const { return ustats_; }
  rt::Driver& driver() { return driver_; }

 private:
  struct Pending {
    sockaddr_in to{};
    Bytes datagram;
  };
  struct Endpoint {
    sockaddr_in addr{};
    int fd = -1;  ///< >= 0 only for locally bound hosts
    PacketSink sink;
    std::deque<Pending> backlog;
    bool flush_scheduled = false;
    bool want_writable = false;  ///< EPOLLOUT armed for backlog drain
  };

  Status open_socket(Endpoint& ep, HostId host, const std::string& ip,
                     std::uint16_t port);
  void flush(HostId host);
  void on_readable(HostId host);
  void on_arrival(Packet& p) override;
  void dispatch(Packet p) override;
  void count_decode_error(udp::DecodeError e);

  rt::Driver& driver_;
  std::unordered_map<HostId, Endpoint> endpoints_;
  UdpStats ustats_;
  // sendmmsg/recvmmsg arrays, one slot per batched datagram, built once.
  // Neither flush() nor on_readable() re-enters itself, so every socket of
  // this network can share them; recv_iovs_ point into recv_bufs_ for good.
  std::vector<mmsghdr> send_msgs_;
  std::vector<iovec> send_iovs_;
  std::vector<Bytes> recv_bufs_;
  std::vector<mmsghdr> recv_msgs_;
  std::vector<iovec> recv_iovs_;
};

}  // namespace dash::net
