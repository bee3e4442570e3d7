// Data-integrity checksums.
//
// Paper §2.1/§2.5: whether and where checksumming happens is negotiated via
// RMS parameters — a network with "hardware" link-level checksumming lets
// software layers elide their own. We provide three algorithms of different
// strength/cost so benches can show the elision tradeoff:
//   * CRC-32 (IEEE 802.3 polynomial) — what an Ethernet interface computes;
//   * Fletcher-16 — a cheap software checksum, for bench_micro's costs;
//   * the 16-bit ones'-complement Internet checksum (RFC 1071 style) — what
//     the TCP-like baseline always pays.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace dash {

/// IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), computed
/// slicing-by-8: eight table lookups per eight bytes.
std::uint32_t crc32(BytesView data);

/// Fletcher-16 checksum (two 8-bit sums mod 255).
std::uint16_t fletcher16(BytesView data);

/// 16-bit ones'-complement sum as used by IP/TCP/UDP.
std::uint16_t internet_checksum(BytesView data);

/// A non-contiguous payload: a sequence of views checksummed as if they
/// were one concatenated byte string. The UDP codec checksums its header
/// and the payload slice without flattening them first.
using ViewChain = std::span<const BytesView>;

std::uint32_t crc32(ViewChain chain);

/// Which checksum the network RMS applies to a message. `kNone` models
/// elision.
enum class ChecksumKind : std::uint8_t { kNone, kCrc32 };

/// Computes the selected checksum (kNone yields 0).
std::uint32_t compute_checksum(ChecksumKind kind, BytesView data);

}  // namespace dash
