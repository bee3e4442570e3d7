// Versioned wire codec for Packet over UDP datagrams (DESIGN.md §16).
//
// One Packet per datagram. The header carries every Packet field the
// in-simulator media pass by struct, so the exact ST / network-RMS bytes
// cross a real socket unchanged; a CRC-32 over header+payload plays the
// role of the Ethernet FCS (the codec is the "hardware" checksum of
// udp_traits(), so software layers above may elide their own). Decode
// never throws: every malformed datagram maps to a DecodeError the
// receiving network counts into corrupted_dropped.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "util/bytes.h"

namespace dash::net::udp {

inline constexpr std::uint16_t kMagic = 0xDA11;
inline constexpr std::uint8_t kWireVersion = 1;

/// Flag bit: the packet was marked corrupted before encode (a fault hook
/// on the sending side); the receiver restores Packet::corrupted.
inline constexpr std::uint8_t kFlagCorrupted = 0x01;

/// Fixed header size. Layout (little-endian, offsets in bytes):
///   0  magic       u16   0xDA11
///   2  version     u8    1
///   3  flags       u8    bit0 = corrupted
///   4  src         u64
///   12 dst         u64
///   20 stream      u64
///   28 seq         u64
///   36 deadline    i64   kTimeNever = no deadline
///   44 priority    u32   (two's-complement int)
///   48 payload_len u32
///   52 checksum    u32   CRC-32 over bytes [0,52) ++ payload
/// Payload bytes follow immediately.
inline constexpr std::size_t kHeaderBytes = 56;

/// Why a datagram failed to decode. All failures are counted into the
/// receiving network's corrupted_dropped (plus a per-cause udp counter).
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kTruncated,    ///< shorter than the fixed header
  kBadMagic,     ///< not one of our datagrams
  kBadVersion,   ///< version field != kWireVersion
  kBadLength,    ///< datagram size != header + payload_len
  kBadChecksum,  ///< CRC mismatch (bit damage in flight)
};

/// Serializes `p` into one datagram (header + payload).
Bytes encode(const Packet& p);

/// Parses `datagram` into `out`. Returns kNone on success; on any failure
/// `out` is unspecified and must not be delivered.
DecodeError decode(BytesView datagram, Packet& out);

}  // namespace dash::net::udp
