// The ST control channel's messages (paper §3.2) and their one codec:
// every control message the ST sends is built by encode(), and every one it
// receives is parsed by decode(). st/wire.h documents the layouts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "st/wire.h"
#include "util/bytes.h"

namespace dash::st {

/// kAuthChallenge and kAuthResponse share a layout. A challenge MACs its
/// nonce, proving the sender holds the pair key; the response echoes the
/// nonce and MACs nonce + 1.
template <ControlType>
struct Auth {
  std::uint64_t request_id = 0;
  std::uint64_t nonce = 0;
  std::uint64_t mac = 0;
  friend bool operator==(const Auth&, const Auth&) = default;
};
using AuthChallenge = Auth<ControlType::kAuthChallenge>;
using AuthResponse = Auth<ControlType::kAuthResponse>;

struct CreateRequest {
  std::uint64_t request_id = 0;
  std::uint64_t st_id = 0;
  std::uint64_t port = 0;     ///< the target client port
  std::uint8_t security = 0;  ///< kMac | kEncrypted
  std::string fabric;         ///< the data channel's network: fast acks return on it
  friend bool operator==(const CreateRequest&, const CreateRequest&) = default;
};

struct CreateReply {
  std::uint64_t request_id = 0;
  std::uint64_t st_id = 0;
  bool ok = false;
  friend bool operator==(const CreateReply&, const CreateReply&) = default;
};

struct Delete {
  std::uint64_t st_id = 0;
  friend bool operator==(const Delete&, const Delete&) = default;
};

struct FastAck {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> acks;  ///< (st id, ack id); not empty
  friend bool operator==(const FastAck&, const FastAck&) = default;
};

/// kPing and kPong share a layout: a path probe (DESIGN.md §11) names the
/// network it travels on. The receiving ST answers a ping over that network
/// and no other, echoing `seq` and the name.
template <ControlType>
struct Probe {
  std::uint64_t seq = 0;
  std::string fabric;
  friend bool operator==(const Probe&, const Probe&) = default;
};
using Ping = Probe<ControlType::kPing>;
using Pong = Probe<ControlType::kPong>;

/// One alternative per ControlType, in ControlType order.
using ControlMsg = std::variant<AuthChallenge, AuthResponse, CreateRequest,
                                CreateReply, Delete, FastAck, Ping, Pong>;

/// Encodes `m` into a buffer reserved to its exact size. The FastAck
/// overload encodes a held batch without copying it into a ControlMsg.
Bytes encode(const ControlMsg& m);
Bytes encode(const FastAck& m);

/// Parses one control message: nullopt unless `in` is exactly one
/// well-formed message. An unknown type, a short field, a kFastAck without
/// pairs and trailing bytes each reject it.
std::optional<ControlMsg> decode(BytesView in);

}  // namespace dash::st
