// Wire formats of the subtransport layer (paper §3.2).
//
// Two well-known ports exist on every DASH host: the ST control port
// (carrying the per-peer control channel's request/reply protocol) and the
// ST data port (carrying multiplexed ST RMS traffic). All numbers are
// little-endian, written with util/serialize.h.
//
// Data network message:
//   u8  tag = kStData
//   u8  component count
//   repeated components:
//     u64 st_rms id (sender-scoped; demux key is (source host, id))
//     u64 sequence number within the ST RMS
//     i64 client send timestamp (delay is measured end to end, §3.4)
//     u8  flags (kFragment | kMac | kEncrypted | kAckRequest)
//     [u16 fragment index, u16 fragment count]   if kFragment
//     [u64 ack id]                               if kAckRequest
//     [u64 mac]                                  if kMac
//     u32 payload size
//     payload bytes
//
// Control messages (one per network message on the control channel):
//   u8 type, then per-type fields (see ControlType; st/control.h is the codec).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "rms/message.h"
#include "util/serialize.h"

namespace dash::st {

/// Well-known port ids (bound by every SubtransportLayer).
inline constexpr rms::PortId kControlPort = 1;
inline constexpr rms::PortId kDataPort = 2;

inline constexpr std::uint8_t kStDataTag = 0xD5;

/// Component flags.
enum ComponentFlags : std::uint8_t {
  kFragment = 1 << 0,    ///< part of a fragmented ST message (§4.3)
  kMac = 1 << 1,         ///< authenticated with a pairwise-key MAC
  kEncrypted = 1 << 2,   ///< payload encrypted for privacy
  kAckRequest = 1 << 3,  ///< receiver's ST should fast-acknowledge (§3.2)
};

/// Control channel message types (§3.2: "a simple request/reply protocol
/// on this channel to do authentication and ST RMS establishment").
enum class ControlType : std::uint8_t {
  kAuthChallenge = 1,  ///< u64 request id, u64 nonce, u64 mac
  kAuthResponse = 2,   ///< u64 request id, u64 nonce echo, u64 mac
  kCreateRequest = 3,  ///< u64 request id, u64 st id, u64 target port,
                       ///< u8 security flags, u32-length-prefixed name
                       ///< of the data channel's fabric
  kCreateReply = 4,    ///< u64 request id, u64 st id, u8 ok
  kDelete = 5,         ///< u64 st id
  kFastAck = 6,        ///< u8 count, count × (u64 st id, u64 ack id)
  kPing = 7,           ///< u64 seq, u32-length-prefixed name of the network
                       ///< the ping travels on
  kPong = 8,           ///< u64 seq echo, u32-length-prefixed name of the
                       ///< network the pong travels on
};

/// Largest control message: the control RMS's maximum message size.
inline constexpr std::size_t kControlMaxMessage = 256;
/// Wire bytes of one (st id, ack id) pair in a kFastAck.
inline constexpr std::size_t kFastAckPairBytes = 8 + 8;
/// Wire size of a kFastAck carrying `pairs` acknowledgements (type + count).
constexpr std::size_t fast_ack_bytes(std::size_t pairs) {
  return 1 + 1 + pairs * kFastAckPairBytes;
}
/// Most pairs one kFastAck carries: as many as fit a control message (15).
inline constexpr std::size_t kFastAckMaxPairs =
    (kControlMaxMessage - fast_ack_bytes(0)) / kFastAckPairBytes;

/// Fixed per-component header bytes (id + seq + sent_at + flags + size).
inline constexpr std::size_t kComponentBaseBytes = 8 + 8 + 8 + 1 + 4;
/// Extra bytes when the corresponding flag is set.
inline constexpr std::size_t kFragmentExtraBytes = 4;
inline constexpr std::size_t kAckExtraBytes = 8;
inline constexpr std::size_t kMacExtraBytes = 8;
/// Network-message envelope (tag + count).
inline constexpr std::size_t kEnvelopeBytes = 2;

/// Wire size of one component carrying `payload` bytes with `flags`.
constexpr std::size_t component_bytes(std::size_t payload, std::uint8_t flags) {
  std::size_t n = kComponentBaseBytes + payload;
  if (flags & kFragment) n += kFragmentExtraBytes;
  if (flags & kAckRequest) n += kAckExtraBytes;
  if (flags & kMac) n += kMacExtraBytes;
  return n;
}

/// One component of a data message. The send path fills it to serialize
/// (computing the MAC as it writes); read_component fills it from a
/// received message, `payload` aliasing the message bytes.
struct Component {
  std::uint64_t stream_id = 0;
  std::uint64_t seq = 0;
  Time sent_at = -1;
  std::uint8_t flags = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::uint64_t ack_id = 0;
  std::uint64_t mac = 0;
  BytesView payload;
};

/// Reads the component at `r`'s position, in the layout above; nullopt if
/// the bytes end before it does, or if its fragment index is not below a
/// nonzero fragment count.
inline std::optional<Component> read_component(Reader& r) {
  auto stream_id = r.u64();
  auto seq = r.u64();
  auto sent_at = r.i64();
  auto flags = r.u8();
  if (!stream_id || !seq || !sent_at || !flags) return std::nullopt;
  Component c;
  c.stream_id = *stream_id;
  c.seq = *seq;
  c.sent_at = *sent_at;
  c.flags = *flags;
  if (c.flags & kFragment) {
    auto index = r.u16();
    auto count = r.u16();
    if (!index || !count || *index >= *count) return std::nullopt;
    c.frag_index = *index;
    c.frag_count = *count;
  }
  if (c.flags & kAckRequest) {
    auto ack_id = r.u64();
    if (!ack_id) return std::nullopt;
    c.ack_id = *ack_id;
  }
  if (c.flags & kMac) {
    auto mac = r.u64();
    if (!mac) return std::nullopt;
    c.mac = *mac;
  }
  auto size = r.u32();
  if (!size) return std::nullopt;
  auto payload = r.view(*size);
  if (!payload) return std::nullopt;
  c.payload = *payload;
  return c;
}

}  // namespace dash::st
