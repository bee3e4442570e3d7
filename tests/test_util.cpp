// Unit tests for src/util: checksums, crypto, RNG, serialization, stats,
// time, and Result.
#include <gtest/gtest.h>

#include <array>

#include "util/bytes.h"
#include "util/checksum.h"
#include "util/crypto.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/time.h"

namespace dash {
namespace {

// ---------------------------------------------------------------- time

TEST(Time, DurationConstructors) {
  EXPECT_EQ(usec(1), 1'000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_EQ(sec(2) + msec(500), 2'500'000'000);
}

TEST(Time, TransmissionTimeRoundsUp) {
  // 1 byte at 10 Mb/s = 800 ns exactly.
  EXPECT_EQ(transmission_time(1, 10'000'000), 800);
  // 1500 bytes at 10 Mb/s = 1.2 ms.
  EXPECT_EQ(transmission_time(1500, 10'000'000), 1'200'000);
  // Non-divisible case rounds up, never down.
  EXPECT_EQ(transmission_time(1, 3), nsec(2'666'666'667));
}

TEST(Time, TransmissionTimeZeroBandwidth) {
  EXPECT_EQ(transmission_time(100, 0), kTimeNever);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(sec(1)), "1.000s");
  EXPECT_EQ(format_time(msec(1)), "1.000ms");
  EXPECT_EQ(format_time(usec(2)), "2.000us");
  EXPECT_EQ(format_time(5), "5ns");
  EXPECT_EQ(format_time(kTimeNever), "never");
}

// ---------------------------------------------------------------- bytes

TEST(Bytes, StringRoundTrip) {
  const std::string s = "hello RMS";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, PatternedDeterministic) {
  EXPECT_EQ(patterned_bytes(64, 7), patterned_bytes(64, 7));
  EXPECT_NE(patterned_bytes(64, 7), patterned_bytes(64, 8));
}

// ------------------------------------------------------------- checksum

TEST(Checksum, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
}

TEST(Checksum, Crc32Empty) { EXPECT_EQ(crc32(BytesView{}), 0u); }

TEST(Checksum, Fletcher16KnownVector) {
  // Fletcher-16 of "abcde" = 0xC8F0.
  EXPECT_EQ(fletcher16(to_bytes("abcde")), 0xC8F0);
}

TEST(Checksum, InternetChecksumDetectsChange) {
  Bytes data = patterned_bytes(100, 1);
  const auto before = internet_checksum(data);
  data[50] ^= std::byte{0x01};
  EXPECT_NE(before, internet_checksum(data));
}

TEST(Checksum, ComputeDispatch) {
  const Bytes data = to_bytes("payload");
  EXPECT_EQ(compute_checksum(ChecksumKind::kNone, data), 0u);
  EXPECT_EQ(compute_checksum(ChecksumKind::kCrc32, data), crc32(data));
}

// Property: every single-bit flip in a small message is caught by CRC-32.
TEST(Checksum, Crc32CatchesAllSingleBitFlips) {
  Bytes data = patterned_bytes(32, 42);
  const auto clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      data[i] ^= static_cast<std::byte>(1 << b);
      EXPECT_NE(crc32(data), clean) << "flip at byte " << i << " bit " << b;
      data[i] ^= static_cast<std::byte>(1 << b);
    }
  }
}

// Bit-at-a-time CRC-32 straight from the definition (reflected IEEE
// polynomial): the oracle for the table-driven implementation.
std::uint32_t crc32_bitwise(BytesView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

// Every length up to 64 walks each mix of eight-byte steps and byte tail.
TEST(Checksum, Crc32MatchesBitwiseReferenceAtEveryLength) {
  const Bytes data = patterned_bytes(4096, 3);
  for (std::size_t n = 0; n <= 64; ++n) {
    const BytesView v(data.data(), n);
    EXPECT_EQ(crc32(v), crc32_bitwise(v)) << "length " << n;
  }
  EXPECT_EQ(crc32(data), crc32_bitwise(data));
}

TEST(Checksum, Crc32ChainMatchesReferenceAtEverySplit) {
  const Bytes data = patterned_bytes(64, 4);
  const std::uint32_t want = crc32_bitwise(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const std::array<BytesView, 2> parts = {
        BytesView(data.data(), cut), BytesView(data.data() + cut, data.size() - cut)};
    EXPECT_EQ(crc32(ViewChain(parts)), want) << "split at " << cut;
  }
}

// --------------------------------------------------------------- crypto

TEST(Crypto, PairKeySymmetric) {
  EXPECT_EQ(derive_pair_key(3, 9), derive_pair_key(9, 3));
  EXPECT_NE(derive_pair_key(3, 9), derive_pair_key(3, 10));
}

TEST(Crypto, CtrRoundTrip) {
  const Key k = derive_pair_key(1, 2);
  const Bytes original = to_bytes("the quick brown fox jumps over the lazy dog");
  Bytes data = original;
  xtea_ctr_crypt(k, 77, data);
  EXPECT_NE(data, original);  // actually encrypted
  xtea_ctr_crypt(k, 77, data);
  EXPECT_EQ(data, original);  // same call decrypts
}

TEST(Crypto, CtrNonceMatters) {
  const Key k = derive_pair_key(1, 2);
  Bytes a = to_bytes("identical plaintext");
  Bytes b = to_bytes("identical plaintext");
  xtea_ctr_crypt(k, 1, a);
  xtea_ctr_crypt(k, 2, b);
  EXPECT_NE(a, b);
}

TEST(Crypto, CtrWrongKeyFails) {
  Bytes data = to_bytes("secret");
  xtea_ctr_crypt(derive_pair_key(1, 2), 5, data);
  xtea_ctr_crypt(derive_pair_key(1, 3), 5, data);
  EXPECT_NE(data, to_bytes("secret"));
}

TEST(Crypto, MacDetectsTampering) {
  const Key k = derive_pair_key(4, 5);
  Bytes data = to_bytes("authenticate me");
  const auto mac = xtea_mac(k, 9, data);
  data[0] ^= std::byte{1};
  EXPECT_NE(xtea_mac(k, 9, data), mac);
}

TEST(Crypto, MacBindsNonceAndKey) {
  const Bytes data = to_bytes("message");
  EXPECT_NE(xtea_mac(derive_pair_key(1, 2), 1, data),
            xtea_mac(derive_pair_key(1, 2), 2, data));
  EXPECT_NE(xtea_mac(derive_pair_key(1, 2), 1, data),
            xtea_mac(derive_pair_key(1, 3), 1, data));
}

TEST(Crypto, MacLengthStrengthened) {
  const Key k = derive_pair_key(1, 2);
  Bytes shorter = patterned_bytes(8, 3);
  Bytes longer = shorter;
  longer.push_back(std::byte{0});
  EXPECT_NE(xtea_mac(k, 1, shorter), xtea_mac(k, 1, longer));
}

// ------------------------------------------------------------------ rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(5);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(9);
  double sum = 0.0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kTrials, 5.0, 0.2);
}

TEST(Rng, ForkIndependent) {
  Rng a(3);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

// ------------------------------------------------------------ serialize

TEST(Serialize, RoundTripAllWidths) {
  Bytes buf;
  Writer w(buf);
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.sized_bytes(to_bytes("payload"));

  Reader r(buf);
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xCDEF);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_EQ(to_string(r.sized_bytes().value()), "payload");
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TruncationYieldsNullopt) {
  Bytes buf;
  Writer w(buf);
  w.u32(7);
  Reader r(buf);
  EXPECT_TRUE(r.u32().has_value());
  EXPECT_FALSE(r.u32().has_value());  // nothing left
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Serialize, SizedBytesTruncatedLength) {
  Bytes buf;
  Writer w(buf);
  w.u32(100);  // claims 100 bytes, provides none
  Reader r(buf);
  EXPECT_FALSE(r.sized_bytes().has_value());
}

TEST(Serialize, RestConsumesRemainder) {
  Bytes buf;
  Writer w(buf);
  w.u8(1);
  w.bytes(to_bytes("tail"));
  Reader r(buf);
  (void)r.u8();
  EXPECT_EQ(to_string(r.rest()), "tail");
  EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------- stats

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.99), 99.0, 1.0);
}

TEST(Stats, SamplesInterleavedAddAndQuery) {
  // Queries between adds must stay correct: the sorted prefix is merged
  // with each unsorted tail, never re-sorted from scratch.
  Samples s;
  for (double v : {9.0, 1.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
  for (double v : {3.0, 7.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
  s.add(0.5);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_EQ(s.count(), 7u);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
}

// --------------------------------------------------------------- result

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(make_error(Errc::kAdmissionRejected, "full"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::kAdmissionRejected);
  EXPECT_EQ(err.error().message, "full");
}

TEST(Result, StatusOkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e = make_error(Errc::kWouldBlock, "port full");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, Errc::kWouldBlock);
}

TEST(Result, ErrcNamesCoverAllCodes) {
  for (auto code : {Errc::kAdmissionRejected, Errc::kIncompatibleParams, Errc::kNoRoute,
                    Errc::kRmsFailed, Errc::kAuthenticationFailed, Errc::kMessageTooLarge,
                    Errc::kCapacityExceeded, Errc::kClosed, Errc::kWouldBlock,
                    Errc::kProtocol, Errc::kInternal}) {
    EXPECT_STRNE(errc_name(code), "?");
  }
}

}  // namespace
}  // namespace dash
