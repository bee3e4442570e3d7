// Wire (de)serialization for protocol headers.
//
// Every protocol header in the stack (network RMS, subtransport, RKOM,
// baseline transports) is serialized with these little-endian writers and
// readers, so header sizes are explicit and byte-accurate — header overhead
// is one of the quantities the piggybacking bench (F4) measures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.h"

namespace dash {

/// Appends fixed-width little-endian fields to a byte buffer.
class Writer {
 public:
  /// Appends to `out`, reserving capacity for `reserve` bytes first.
  explicit Writer(Bytes& out, std::size_t reserve = 0) : out_(out) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }

  void bytes(BytesView v) { append(out_, v); }

  /// Length-prefixed (u32) byte string.
  void sized_bytes(BytesView v) {
    u32(static_cast<std::uint32_t>(v.size()));
    bytes(v);
  }

  std::size_t pos() const { return out_.size(); }

  /// Appends `n` zero bytes (headroom gaps, placeholder fields).
  void skip(std::size_t n) { out_.resize(out_.size() + n); }

  /// Overwrites a u64 already written, whose value is known only after
  /// later bytes are (the ST's MAC precedes the body it covers).
  void patch_u64(std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) out_[at + i] = static_cast<std::byte>(v >> (8 * i));
  }

  /// Mutable view of an already-written region; invalidated by the next
  /// write (growth may reallocate).
  std::span<std::byte> span(std::size_t at, std::size_t n) { return {out_.data() + at, n}; }

 private:
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<std::byte>(v >> (8 * i)));
    }
  }

  Bytes& out_;
};

/// Reads fields written by Writer. All accessors return nullopt on
/// truncation; protocol code treats that as Errc::kProtocol, never UB.
class Reader {
 public:
  explicit Reader(BytesView in) : in_(in) {}

  std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > in_.size()) return std::nullopt;
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  std::optional<std::uint16_t> u16() { return get<std::uint16_t>(2); }
  std::optional<std::uint32_t> u32() { return get<std::uint32_t>(4); }
  std::optional<std::uint64_t> u64() { return get<std::uint64_t>(8); }
  std::optional<std::int64_t> i64() {
    auto v = get<std::uint64_t>(8);
    if (!v) return std::nullopt;
    return static_cast<std::int64_t>(*v);
  }

  std::optional<Bytes> bytes(std::size_t n) {
    if (pos_ + n > in_.size()) return std::nullopt;
    Bytes b(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
            in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  std::optional<Bytes> sized_bytes() {
    auto n = u32();
    if (!n) return std::nullopt;
    return bytes(*n);
  }

  /// Remaining unread bytes as a copy.
  Bytes rest() {
    Bytes b(in_.begin() + static_cast<std::ptrdiff_t>(pos_), in_.end());
    pos_ = in_.size();
    return b;
  }

  /// Non-copying read of the next `n` bytes; the view aliases the input.
  /// The zero-copy receive path pairs this with Buffer::slice(pos(), n).
  std::optional<BytesView> view(std::size_t n) {
    if (pos_ + n > in_.size()) return std::nullopt;
    BytesView v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// Current read offset from the start of the input.
  std::size_t pos() const { return pos_; }

  /// Advances past `n` bytes without reading them; false on truncation.
  bool skip(std::size_t n) {
    if (pos_ + n > in_.size()) return false;
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return pos_ == in_.size(); }

 private:
  template <typename T>
  std::optional<T> get(int width) {
    if (pos_ + static_cast<std::size_t>(width) > in_.size()) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(width);
    return static_cast<T>(v);
  }

  BytesView in_;
  std::size_t pos_ = 0;
};

}  // namespace dash
