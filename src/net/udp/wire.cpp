#include "net/udp/wire.h"

#include <array>

#include "util/checksum.h"
#include "util/serialize.h"

namespace dash::net::udp {

namespace {
constexpr std::size_t kChecksumOffset = kHeaderBytes - 4;
}  // namespace

Bytes encode(const Packet& p) {
  Bytes out;
  out.reserve(kHeaderBytes + p.payload.size());
  Writer w(out);
  w.u16(kMagic);
  w.u8(kWireVersion);
  w.u8(p.corrupted ? kFlagCorrupted : 0);
  w.u64(p.src);
  w.u64(p.dst);
  w.u64(p.stream);
  w.u64(p.seq);
  w.i64(p.deadline);
  w.u32(static_cast<std::uint32_t>(p.priority));
  w.u32(static_cast<std::uint32_t>(p.payload.size()));
  const std::array<BytesView, 2> chain = {
      BytesView(out.data(), kChecksumOffset), p.payload.view()};
  w.u32(crc32(ViewChain(chain)));
  w.bytes(p.payload.view());
  return out;
}

DecodeError decode(BytesView datagram, Packet& out) {
  if (datagram.size() < kHeaderBytes) return DecodeError::kTruncated;
  Reader r(datagram);
  if (*r.u16() != kMagic) return DecodeError::kBadMagic;
  if (*r.u8() != kWireVersion) return DecodeError::kBadVersion;
  const std::uint8_t flags = *r.u8();
  out.src = *r.u64();
  out.dst = *r.u64();
  out.stream = *r.u64();
  out.seq = *r.u64();
  out.deadline = *r.i64();
  out.priority = static_cast<int>(*r.u32());
  const std::uint32_t payload_len = *r.u32();
  const std::uint32_t wire_crc = *r.u32();
  if (datagram.size() != kHeaderBytes + payload_len) {
    return DecodeError::kBadLength;
  }
  const std::array<BytesView, 2> chain = {
      datagram.subspan(0, kChecksumOffset), datagram.subspan(kHeaderBytes)};
  if (crc32(ViewChain(chain)) != wire_crc) return DecodeError::kBadChecksum;
  out.corrupted = (flags & kFlagCorrupted) != 0;
  out.payload = Buffer(Bytes(datagram.begin() + kHeaderBytes, datagram.end()));
  return DecodeError::kNone;
}

}  // namespace dash::net::udp
