#include "net/udp/udp.h"

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dash::net {
namespace {

/// Datagrams per sendmmsg/recvmmsg call, and recvmmsg batches per readiness
/// wakeup: one wakeup drains at most kMaxRecvRounds × kBatch datagrams.
constexpr int kBatch = 32;
constexpr int kMaxRecvRounds = 16;
/// Receive buffer per datagram.
constexpr std::size_t kDatagramBuffer = 2048;
/// SO_SNDBUF and SO_RCVBUF request per socket.
constexpr int kSocketBufferBytes = 1 << 20;

}  // namespace

NetworkTraits udp_traits(std::string name) {
  NetworkTraits t;
  t.name = std::move(name);
  t.trusted = false;
  t.physical_broadcast = false;
  t.link_encryption = false;
  // The wire-codec CRC plays the FCS: damaged datagrams are dropped by the
  // decoder before any sink, so layers above see an error-free medium and
  // may elide software checksums (§2.1).
  t.hardware_checksum = true;
  t.bit_error_rate = 0.0;
  t.bits_per_second = 10'000'000'000;  // loopback: not the bottleneck
  t.propagation_delay = usec(30);      // nominal loopback RTT/2 for admission
  t.max_packet_bytes = 1400;           // stay under typical MTU with headers
  t.buffer_bytes = 4 * 1024 * 1024;
  t.rms_setup_cost = msec(1);
  return t;
}

bool udp_available() {
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = 0;
  const bool ok =
      bind(fd, reinterpret_cast<const sockaddr*>(&a), sizeof(a)) == 0;
  close(fd);
  return ok;
}

UdpNetwork::UdpNetwork(rt::Driver& driver, NetworkTraits traits)
    : Network(driver.simulator(), std::move(traits)), driver_(driver) {
  send_msgs_.resize(kBatch);
  send_iovs_.resize(kBatch);
  recv_bufs_.assign(kBatch, Bytes(kDatagramBuffer));
  recv_msgs_.resize(kBatch);
  recv_iovs_.resize(kBatch);
  for (std::size_t i = 0; i < recv_bufs_.size(); ++i) {
    recv_iovs_[i] = iovec{recv_bufs_[i].data(), recv_bufs_[i].size()};
    recv_msgs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
    recv_msgs_[i].msg_hdr.msg_iovlen = 1;
  }
}

UdpNetwork::~UdpNetwork() {
  for (auto& [host, ep] : endpoints_) {
    if (ep.fd >= 0) {
      driver_.remove_fd(ep.fd);
      close(ep.fd);
    }
  }
}

Status UdpNetwork::open_socket(Endpoint& ep, HostId host,
                               const std::string& ip, std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  if (inet_pton(AF_INET, ip.c_str(), &a.sin_addr) != 1) {
    return make_error(Errc::kNoRoute, "bad address: " + ip);
  }
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return make_error(Errc::kInternal,
                      std::string("socket: ") + std::strerror(errno));
  }
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes,
             sizeof(kSocketBufferBytes));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes,
             sizeof(kSocketBufferBytes));
  if (bind(fd, reinterpret_cast<const sockaddr*>(&a), sizeof(a)) != 0) {
    const int err = errno;
    close(fd);
    return make_error(Errc::kInternal,
                      std::string("bind: ") + std::strerror(err));
  }
  socklen_t len = sizeof(a);
  getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len);
  Status st = driver_.add_fd(fd, EPOLLIN, [this, host](std::uint32_t ev) {
    if (ev & EPOLLOUT) flush(host);
    if (ev & (EPOLLIN | EPOLLERR)) on_readable(host);
  });
  if (!st.ok()) {
    close(fd);
    return st;
  }
  ep.addr = a;
  ep.fd = fd;
  ++ustats_.sockets_opened;
  return Status::ok_status();
}

Status UdpNetwork::bind_endpoint(HostId host, const std::string& ip,
                                 std::uint16_t port) {
  Endpoint& ep = endpoints_[host];
  if (ep.fd >= 0) {
    return make_error(Errc::kInternal, "host already bound");
  }
  return open_socket(ep, host, ip, port);
}

std::uint16_t UdpNetwork::local_port(HostId host) const {
  auto it = endpoints_.find(host);
  if (it == endpoints_.end() || it->second.fd < 0) return 0;
  return ntohs(it->second.addr.sin_port);
}

void UdpNetwork::attach(HostId host, PacketSink sink) {
  auto it = endpoints_.find(host);
  if (it == endpoints_.end() || it->second.fd < 0) {
    // Implicit loopback bind keeps topology builders one-call-per-host.
    if (!bind_endpoint(host, "127.0.0.1", 0).ok()) return;
    it = endpoints_.find(host);
  }
  it->second.sink = std::move(sink);
}

bool UdpNetwork::attached(HostId host) const {
  auto it = endpoints_.find(host);
  return it != endpoints_.end() && it->second.fd >= 0 &&
         static_cast<bool>(it->second.sink);
}

bool UdpNetwork::send(Packet p) {
  if (down()) {
    ++stats_.dropped;
    return false;
  }
  auto src = endpoints_.find(p.src);
  if (src == endpoints_.end() || src->second.fd < 0) {
    ++ustats_.no_local_socket;
    ++stats_.dropped;
    return false;
  }
  if (p.size() > traits_.max_packet_bytes) {
    ++ustats_.oversized;
    ++stats_.dropped;
    return false;
  }
  auto dst = endpoints_.find(p.dst);
  if (p.dst == kBroadcast || dst == endpoints_.end()) {
    ++ustats_.unknown_dst;
    ++stats_.dropped;
    return false;
  }
  p.seq = next_seq();
  Endpoint& ep = src->second;
  ep.backlog.push_back(Pending{dst->second.addr, udp::encode(p)});
  ++stats_.sent;
  if (ep.backlog.size() > ustats_.max_send_backlog) {
    ustats_.max_send_backlog = ep.backlog.size();
  }
  if (!ep.flush_scheduled) {
    // Zero-delay task: every send in this event batch shares one sendmmsg.
    ep.flush_scheduled = true;
    sim_.after(0, [this, host = p.src] {
      endpoints_.at(host).flush_scheduled = false;
      flush(host);
    });
  }
  return true;
}

void UdpNetwork::flush(HostId host) {
  auto it = endpoints_.find(host);
  if (it == endpoints_.end() || it->second.fd < 0) return;
  Endpoint& ep = it->second;
  while (!ep.backlog.empty()) {
    const std::size_t n = std::min(ep.backlog.size(), send_msgs_.size());
    for (std::size_t i = 0; i < n; ++i) {
      Pending& pend = ep.backlog[i];
      send_iovs_[i] = iovec{pend.datagram.data(), pend.datagram.size()};
      send_msgs_[i] = mmsghdr{};
      msghdr& h = send_msgs_[i].msg_hdr;
      h.msg_name = &pend.to;
      h.msg_namelen = sizeof(pend.to);
      h.msg_iov = &send_iovs_[i];
      h.msg_iovlen = 1;
    }
    const int sent =
        sendmmsg(ep.fd, send_msgs_.data(), static_cast<unsigned>(n), 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++ustats_.send_eagain;
        if (!ep.want_writable) {
          ep.want_writable = true;
          driver_.modify_fd(ep.fd, EPOLLIN | EPOLLOUT);
        }
        return;  // resume from the EPOLLOUT wakeup
      }
      // Hard error (e.g. ECONNREFUSED bounced back): drop the head datagram
      // so the queue cannot wedge, and keep going.
      ++ustats_.send_errors;
      ++stats_.dropped;
      ep.backlog.pop_front();
      continue;
    }
    ustats_.datagrams_sent += static_cast<std::uint64_t>(sent);
    if (sent > 0) ++ustats_.send_batches;
    ep.backlog.erase(ep.backlog.begin(), ep.backlog.begin() + sent);
  }
  if (ep.want_writable) {
    ep.want_writable = false;
    driver_.modify_fd(ep.fd, EPOLLIN);
  }
}

void UdpNetwork::count_decode_error(udp::DecodeError e) {
  ++stats_.corrupted_dropped;
  switch (e) {
    case udp::DecodeError::kTruncated: ++ustats_.decode_truncated; break;
    case udp::DecodeError::kBadMagic: ++ustats_.decode_bad_magic; break;
    case udp::DecodeError::kBadVersion: ++ustats_.decode_bad_version; break;
    case udp::DecodeError::kBadLength: ++ustats_.decode_bad_length; break;
    case udp::DecodeError::kBadChecksum: ++ustats_.decode_bad_checksum; break;
    case udp::DecodeError::kNone: break;
  }
}

void UdpNetwork::on_readable(HostId host) {
  auto it = endpoints_.find(host);
  if (it == endpoints_.end() || it->second.fd < 0) return;
  const int fd = it->second.fd;
  for (int round = 0; round < kMaxRecvRounds; ++round) {
    const int got = recvmmsg(fd, recv_msgs_.data(), kBatch, 0, nullptr);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) ++ustats_.recv_errors;
      return;
    }
    if (got == 0) return;
    ++ustats_.recv_batches;
    ustats_.datagrams_received += static_cast<std::uint64_t>(got);
    for (int i = 0; i < got; ++i) {
      auto u = static_cast<std::size_t>(i);
      BytesView dgram(recv_bufs_[u].data(), recv_msgs_[u].msg_len);
      Packet p;
      const udp::DecodeError e = udp::decode(dgram, p);
      if (e != udp::DecodeError::kNone) {
        count_decode_error(e);
        continue;
      }
      deliver(std::move(p));
    }
    if (got < kBatch) return;  // drained
  }
}

void UdpNetwork::on_arrival(Packet& p) { run_taps(p); }

void UdpNetwork::dispatch(Packet p) {
  auto it = endpoints_.find(p.dst);
  hand_to(it == endpoints_.end() ? nullptr : &it->second.sink, std::move(p));
}

}  // namespace dash::net
