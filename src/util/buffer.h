// Reference-counted payload buffers for the zero-copy datapath.
//
// The paper's layering (user RMS → ST → network RMS → network) invites one
// payload copy per boundary; §4.1 budgets host overhead as the `A + B·size`
// delay terms, so every copy shows up in the delivered bound. `Buffer` makes
// the boundaries free instead: a payload is an immutable view into shared
// storage, `slice()` is O(1), and a whole fragmented send can live in one
// allocation that every layer hands onward by reference.
//
// Ownership rules (DESIGN.md §9):
//   * A Buffer never exposes mutable access to bytes another Buffer can see.
//     In-place mutation (`mutate`, `flip_bit`) copies first unless this
//     Buffer is the storage's only owner.
//   * Headroom is the one exception: a slice created with explicit headroom
//     may `prepend()` into the bytes directly before its range. The creator
//     of the slice guarantees nobody else owns that gap (the ST arena
//     reserves a per-packet gap for exactly the network RMS header).
//   * The sender's source bytes are copied exactly once — the gather-write
//     into the arena — so a client mutating its source after `send` cannot
//     corrupt data in flight.
#pragma once

#include <cstring>
#include <memory>
#include <utility>

#include "util/bytes.h"

namespace dash {

/// An immutable, cheaply copyable view into shared byte storage.
class Buffer {
 public:
  Buffer() = default;

  /// Takes ownership of `b` (no copy). Implicit so the many call sites that
  /// build a Bytes and assign it to a message keep working.
  Buffer(Bytes&& b)  // NOLINT(google-explicit-constructor)
      : storage_(std::make_shared<Storage>(Storage{std::move(b)})),
        len_(storage_->bytes.size()) {}

  /// Copies `b` into fresh storage. Implicit, and deliberately a copy: the
  /// caller keeps its vector, so aliasing it later is safe.
  Buffer(const Bytes& b)  // NOLINT(google-explicit-constructor)
      : Buffer(Bytes(b)) {}

  BytesView view() const {
    return storage_ ? BytesView(storage_->bytes.data() + offset_, len_)
                    : BytesView{};
  }
  operator BytesView() const { return view(); }  // NOLINT

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::byte operator[](std::size_t i) const { return view()[i]; }
  BytesView::iterator begin() const { return view().begin(); }
  BytesView::iterator end() const { return view().end(); }

  /// O(1) sub-range sharing this buffer's storage. `headroom` grants the
  /// slice write access to that many bytes directly before `offset`; pass it
  /// only when those bytes belong to nobody else (see ownership rules).
  Buffer slice(std::size_t offset, std::size_t len,
               std::size_t headroom = 0) const {
    Buffer out;
    if (!storage_ || offset > len_) return out;
    out.storage_ = storage_;
    out.offset_ = offset_ + offset;
    out.len_ = std::min(len, len_ - offset);
    out.headroom_ = std::min(headroom, out.offset_);
    return out;
  }

  std::size_t headroom() const { return headroom_; }

  /// Returns a buffer whose contents are `header` followed by this buffer's
  /// contents. When this buffer has `headroom() >= header.size()` the header
  /// is written into the reserved gap and the result shares storage (zero
  /// copy of the payload); otherwise the result is a fresh allocation.
  Buffer prepend(BytesView header) const {
    const std::size_t n = header.size();
    if (storage_ && headroom_ >= n) {
      if (n != 0) {
        std::memcpy(storage_->bytes.data() + (offset_ - n), header.data(), n);
      }
      Buffer out;
      out.storage_ = storage_;
      out.offset_ = offset_ - n;
      out.len_ = len_ + n;
      out.headroom_ = headroom_ - n;
      return out;
    }
    Bytes joined;
    joined.reserve(n + len_);
    append(joined, header);
    append(joined, view());
    return Buffer(std::move(joined));
  }

  /// Writable access to this buffer's range. Copies the range into fresh
  /// storage first unless this Buffer is the storage's only owner, so other
  /// buffers sharing the old storage are never affected.
  std::span<std::byte> mutate() {
    if (!storage_) return {};
    if (storage_.use_count() != 1) {
      Bytes own(view().begin(), view().end());
      *this = Buffer(std::move(own));
    }
    return {storage_->bytes.data() + offset_, len_};
  }

  /// XORs `mask` into byte `pos` (fault injection) with copy-on-write.
  void flip_bit(std::size_t pos, std::uint8_t mask) {
    if (pos >= len_) return;
    mutate()[pos] ^= static_cast<std::byte>(mask);
  }

  /// Materializes an owned copy of the contents.
  Bytes to_bytes() const {
    return Bytes(view().begin(), view().end());
  }

  /// True when both buffers are views into the same storage allocation —
  /// used by tests to assert the datapath really is zero-copy.
  bool shares_storage(const Buffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  /// Concatenates `parts` into one freshly allocated buffer (the single
  /// copy a fragmented delivery pays, at final reassembly).
  static Buffer concat(std::span<const Buffer> parts) {
    std::size_t total = 0;
    for (const Buffer& p : parts) total += p.size();
    Bytes joined;
    joined.reserve(total);
    for (const Buffer& p : parts) append(joined, p);
    return Buffer(std::move(joined));
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    const BytesView va = a.view(), vb = b.view();
    return va.size() == vb.size() &&
           (va.empty() || std::memcmp(va.data(), vb.data(), va.size()) == 0);
  }
  friend bool operator==(const Buffer& a, BytesView b) {
    const BytesView va = a.view();
    return va.size() == b.size() &&
           (va.empty() || std::memcmp(va.data(), b.data(), va.size()) == 0);
  }
  // Exact-match overload: without it, Buffer == Bytes is ambiguous (Bytes
  // converts to both Buffer and BytesView equally well).
  friend bool operator==(const Buffer& a, const Bytes& b) {
    return a == BytesView(b);
  }

 private:
  struct Storage {
    Bytes bytes;
  };

  std::shared_ptr<Storage> storage_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
  std::size_t headroom_ = 0;
};

}  // namespace dash
