#include "util/checksum.h"

#include <array>

namespace dash {
namespace {

// Slicing-by-8 (Intel's "slicing" CRC): tables[k][b] is the CRC state
// contribution of byte b followed by k zero bytes, so one step folds eight
// input bytes with eight independent lookups instead of eight dependent
// ones. tables[0] is the classic byte-at-a-time table; the polynomial and
// every result are unchanged.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc32_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc32_tables();

std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t crc32_accumulate(std::uint32_t c, BytesView data) {
  const auto& t = kCrcTables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

}  // namespace

std::uint32_t crc32(BytesView data) {
  return crc32_accumulate(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(ViewChain chain) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (BytesView part : chain) c = crc32_accumulate(c, part);
  return c ^ 0xFFFFFFFFu;
}

std::uint16_t fletcher16(BytesView data) {
  std::uint32_t sum1 = 0;
  std::uint32_t sum2 = 0;
  for (std::byte b : data) {
    sum1 = (sum1 + static_cast<std::uint8_t>(b)) % 255u;
    sum2 = (sum2 + sum1) % 255u;
  }
  return static_cast<std::uint16_t>((sum2 << 8) | sum1);
}

std::uint16_t internet_checksum(BytesView data) {
  std::uint32_t sum = 0;
  bool high = true;
  for (std::byte b : data) {
    const auto v = static_cast<std::uint32_t>(static_cast<std::uint8_t>(b));
    sum += high ? (v << 8) : v;
    high = !high;
  }
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFFu);
}

std::uint32_t compute_checksum(ChecksumKind kind, BytesView data) {
  return kind == ChecksumKind::kCrc32 ? crc32(data) : 0;
}

}  // namespace dash
