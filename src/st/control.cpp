#include "st/control.h"

#include "util/serialize.h"

namespace dash::st {
namespace {

template <ControlType T>
std::size_t wire_size(const Auth<T>&) { return 1 + 3 * 8; }
std::size_t wire_size(const CreateRequest& m) { return 1 + 3 * 8 + 1 + 4 + m.fabric.size(); }
std::size_t wire_size(const CreateReply&) { return 1 + 2 * 8 + 1; }
std::size_t wire_size(const Delete&) { return 1 + 8; }
std::size_t wire_size(const FastAck& m) { return fast_ack_bytes(m.acks.size()); }
template <ControlType T>
std::size_t wire_size(const Probe<T>& m) { return 1 + 8 + 4 + m.fabric.size(); }

// The fields after the type byte.
template <ControlType T>
void put(Writer& w, const Auth<T>& m) {
  w.u64(m.request_id);
  w.u64(m.nonce);
  w.u64(m.mac);
}
void put(Writer& w, const CreateRequest& m) {
  w.u64(m.request_id);
  w.u64(m.st_id);
  w.u64(m.port);
  w.u8(m.security);
  w.sized_bytes(std::as_bytes(std::span(m.fabric)));
}
void put(Writer& w, const CreateReply& m) {
  w.u64(m.request_id);
  w.u64(m.st_id);
  w.u8(m.ok ? 1 : 0);
}
void put(Writer& w, const Delete& m) { w.u64(m.st_id); }
void put(Writer& w, const FastAck& m) {
  w.u8(static_cast<std::uint8_t>(m.acks.size()));
  for (const auto& [st_id, ack_id] : m.acks) {
    w.u64(st_id);
    w.u64(ack_id);
  }
}
template <ControlType T>
void put(Writer& w, const Probe<T>& m) {
  w.u64(m.seq);
  w.sized_bytes(std::as_bytes(std::span(m.fabric)));
}

template <typename M>
Bytes encode_as(ControlType type, const M& m) {
  Bytes out;
  Writer w(out, wire_size(m));
  w.u8(static_cast<std::uint8_t>(type));
  put(w, m);
  return out;
}

/// Reads fields in wire order. A short read fails every later one too:
/// Reader does not advance past a failed read, so a later, narrower read
/// could otherwise still succeed.
struct Fields {
  Reader r;
  bool ok = true;

  template <typename T>
  T take(std::optional<T> v) {
    ok = ok && v.has_value();
    return v.value_or(T{});
  }
  std::uint8_t u8() { return take(r.u8()); }
  std::uint64_t u64() { return take(r.u64()); }
  std::string text() { return to_string(take(r.view(take(r.u32())))); }
};

std::optional<ControlMsg> read_message(Fields& f) {
  // A braced initializer evaluates its elements in order.
  switch (static_cast<ControlType>(f.u8())) {
    case ControlType::kAuthChallenge: return AuthChallenge{f.u64(), f.u64(), f.u64()};
    case ControlType::kAuthResponse: return AuthResponse{f.u64(), f.u64(), f.u64()};
    case ControlType::kCreateRequest:
      return CreateRequest{f.u64(), f.u64(), f.u64(), f.u8(), f.text()};
    case ControlType::kCreateReply: return CreateReply{f.u64(), f.u64(), f.u8() != 0};
    case ControlType::kDelete: return Delete{f.u64()};
    case ControlType::kFastAck: {
      FastAck m;
      m.acks.resize(f.u8());
      for (auto& pair : m.acks) pair = {f.u64(), f.u64()};
      if (m.acks.empty()) return std::nullopt;
      return m;
    }
    case ControlType::kPing: return Ping{f.u64(), f.text()};
    case ControlType::kPong: return Pong{f.u64(), f.text()};
  }
  return std::nullopt;
}

}  // namespace

Bytes encode(const ControlMsg& m) {
  const auto type = static_cast<ControlType>(m.index() + 1);  // ControlType starts at 1
  return std::visit([type](const auto& x) { return encode_as(type, x); }, m);
}

Bytes encode(const FastAck& m) { return encode_as(ControlType::kFastAck, m); }

std::optional<ControlMsg> decode(BytesView in) {
  Fields f{Reader(in)};
  std::optional<ControlMsg> m = read_message(f);
  if (!f.ok || !f.r.done()) return std::nullopt;
  return m;
}

}  // namespace dash::st
