// Tests for the ST control codec (st/control.h) and for the control protocol
// under packet faults (paper §3.2):
//   * every message round-trips in its layout, and every strict prefix of
//     its encoding, a trailing byte, an unknown type and an empty kFastAck
//     are refused;
//   * seeded mutations of control messages, and of data messages with every
//     flag combination, never read out of bounds (scripts/check.sh runs
//     this under ASan and UBSan), and whatever still decodes re-encodes to
//     a message that decodes to itself;
//   * an 8 KB reliable transfer over an untrusted Ethernet — handshake,
//     create exchange, fast acks and transport acks all cross the medium —
//     delivers its bytes exactly once, in order, and drains the sender
//     under every single drop, duplicate or delay of one packet, and every
//     pair of drops and duplicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/fault_hook.h"
#include "st/control.h"
#include "st/st.h"
#include "test_helpers.h"
#include "transport/stream.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dash::st {
namespace {

/// One message of each type, in ControlType order, every field set.
std::vector<ControlMsg> one_of_each() {
  return {AuthChallenge{1, 0xA5A5A5A5A5ull, 0x0123456789ABCDEFull},
          AuthResponse{1, 0xA5A5A5A5A5ull, 0xFEDCBA9876543210ull},
          CreateRequest{2, 7, 50, kMac | kEncrypted, "ethernet"},
          CreateReply{2, 7, true},
          Delete{7},
          FastAck{{{7, 1}, {9, kHandoffAckBit | 3}}},
          Ping{11, "eth-b"},
          Pong{11, "eth-b"}};
}

/// Decodes a copy of `b` in an allocation of exactly its size, so a read
/// past the end is a heap overflow the address sanitizer reports.
std::optional<ControlMsg> decode_exact(const Bytes& b) { return decode(Bytes(b)); }

TEST(StControl, EveryMessageRoundTripsInItsLayout) {
  const std::vector<std::size_t> sizes = {25, 25, 1 + 3 * 8 + 1 + 4 + 8, 18, 9,
                                          fast_ack_bytes(2), 1 + 8 + 4 + 5, 1 + 8 + 4 + 5};
  const std::vector<ControlMsg> messages = one_of_each();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Bytes wire = encode(messages[i]);
    ASSERT_EQ(wire.size(), sizes[i]) << "type " << i + 1;
    EXPECT_EQ(std::to_integer<std::size_t>(wire[0]), i + 1) << "ControlType order";
    EXPECT_TRUE(decode_exact(wire) == messages[i]) << "type " << i + 1;
  }
  EXPECT_EQ(encode(std::get<FastAck>(messages[5])), encode(messages[5]));
}

TEST(StControl, EveryStrictPrefixAndATrailingByteAreRejected) {
  for (const ControlMsg& m : one_of_each()) {
    const Bytes wire = encode(m);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      EXPECT_FALSE(decode_exact(Bytes(wire.begin(), wire.begin() +
                                                        static_cast<std::ptrdiff_t>(len))))
          << "type " << m.index() + 1 << " cut at " << len;
    }
    Bytes longer = wire;
    longer.push_back(std::byte{0});
    EXPECT_FALSE(decode_exact(longer)) << "type " << m.index() + 1 << " with a trailing byte";
  }
}

TEST(StControl, UnknownTypesAndEmptyFastAcksAreRejected) {
  for (int type : {0, static_cast<int>(ControlType::kPong) + 1, 0x80, 0xFF}) {
    Bytes wire(1 + 3 * 8);
    wire[0] = static_cast<std::byte>(type);
    EXPECT_FALSE(decode_exact(wire)) << "type " << type;
  }
  const Bytes empty = {std::byte{static_cast<std::uint8_t>(ControlType::kFastAck)},
                       std::byte{0}};
  EXPECT_FALSE(decode_exact(empty));
}

// ------------------------------------------------------------- mutations

/// Applies one to three seeded mutations to `b`: a bit flip, a byte
/// overwrite, a cut, or a small edit of one of the count or length fields
/// at `counts`.
void mutate(Rng& rng, Bytes& b, const std::vector<std::size_t>& counts) {
  const auto n = rng.range(1, 3);
  for (std::int64_t i = 0; i < n && !b.empty(); ++i) {
    const std::size_t at = rng.below(b.size());
    switch (rng.below(4)) {
      case 0: b[at] ^= static_cast<std::byte>(1u << rng.below(8)); break;
      case 1: b[at] = static_cast<std::byte>(rng.below(256)); break;
      case 2: b.resize(at); break;
      default: {
        const std::size_t field = counts[rng.below(counts.size())];
        if (field < b.size()) {
          b[field] = static_cast<std::byte>(std::to_integer<int>(b[field]) + rng.range(-2, 2));
        }
      }
    }
  }
}

ControlMsg random_control(Rng& rng) {
  auto u64 = [&rng] { return rng.next(); };
  auto name = [&rng] {
    std::string fabric(rng.below(24), ' ');
    for (char& c : fabric) c = static_cast<char>(rng.below(256));
    return fabric;
  };
  switch (rng.below(8)) {
    case 0: return AuthChallenge{u64(), u64(), u64()};
    case 1: return AuthResponse{u64(), u64(), u64()};
    case 2:
      return CreateRequest{u64(), u64(), u64(), static_cast<std::uint8_t>(rng.below(256)),
                           name()};
    case 3: return CreateReply{u64(), u64(), rng.chance(0.5)};
    case 4: return Delete{u64()};
    case 5: {
      FastAck m;
      m.acks.resize(static_cast<std::size_t>(rng.range(1, kFastAckMaxPairs)));
      for (auto& pair : m.acks) pair = {u64(), u64()};
      return m;
    }
    case 6: return Ping{u64(), name()};
    default: return Pong{u64(), name()};
  }
}

/// The offset of the count or length field a mutation may nudge: the low
/// byte of a network name's length, or the kFastAck pair count.
std::size_t count_field(const ControlMsg& m) {
  if (std::holds_alternative<CreateRequest>(m)) return 26;
  if (std::holds_alternative<Ping>(m) || std::holds_alternative<Pong>(m)) return 9;
  return 1;
}

TEST(StControlFuzz, MutatedControlMessagesReencodeStably) {
  Rng rng(2022);
  int survivors = 0;
  for (int i = 0; i < 20000; ++i) {
    const ControlMsg original = random_control(rng);
    Bytes wire = encode(original);
    mutate(rng, wire, {count_field(original)});
    const std::optional<ControlMsg> first = decode_exact(wire);
    if (!first) continue;
    ++survivors;
    const std::optional<ControlMsg> second = decode_exact(encode(*first));
    ASSERT_TRUE(second.has_value()) << "iteration " << i;
    ASSERT_TRUE(*second == *first) << "iteration " << i;
  }
  EXPECT_GT(survivors, 1000);
}

/// A data message in the st/wire.h layout, one component per entry of
/// `components` (test-local: the ST's own serializer is private).
Bytes data_message(const std::vector<Component>& components) {
  Bytes b;
  Writer w(b);
  w.u8(kStDataTag);
  w.u8(static_cast<std::uint8_t>(components.size()));
  for (const Component& c : components) {
    w.u64(c.stream_id);
    w.u64(c.seq);
    w.i64(c.sent_at);
    w.u8(c.flags);
    if (c.flags & kFragment) {
      w.u16(c.frag_index);
      w.u16(c.frag_count);
    }
    if (c.flags & kAckRequest) w.u64(c.ack_id);
    if (c.flags & kMac) w.u64(c.mac);
    w.sized_bytes(c.payload);
  }
  return b;
}

/// Reads a data message as the ST's receive path does: nullopt unless the
/// envelope and every component it counts are well formed.
std::optional<std::vector<Component>> read_data(BytesView in) {
  Reader r(in);
  const auto tag = r.u8();
  const auto count = r.u8();
  if (!tag || *tag != kStDataTag || !count) return std::nullopt;
  std::vector<Component> out;
  for (int i = 0; i < *count; ++i) {
    auto c = read_component(r);
    if (!c) return std::nullopt;
    out.push_back(*c);
  }
  return out;
}

bool same(const std::vector<Component>& a, const std::vector<Component>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Component& x, const Component& y) {
                      return x.stream_id == y.stream_id && x.seq == y.seq &&
                             x.sent_at == y.sent_at && x.flags == y.flags &&
                             x.frag_index == y.frag_index && x.frag_count == y.frag_count &&
                             x.ack_id == y.ack_id && x.mac == y.mac &&
                             std::equal(x.payload.begin(), x.payload.end(),
                                        y.payload.begin(), y.payload.end());
                    });
}

TEST(StControlFuzz, MutatedDataMessagesStayInBoundsAndReencodeStably) {
  Rng rng(1988);
  int survivors = 0;
  for (int i = 0; i < 20000; ++i) {
    // One to three components; over the run every one of the 16 flag
    // combinations leads a message.
    std::vector<Component> components(static_cast<std::size_t>(rng.range(1, 3)));
    std::vector<Bytes> payloads;
    payloads.reserve(components.size());
    for (std::size_t k = 0; k < components.size(); ++k) {
      Component& c = components[k];
      c.stream_id = rng.next();
      c.seq = rng.next();
      c.sent_at = rng.range(0, sec(10));
      c.flags = static_cast<std::uint8_t>(k == 0 ? i % 16 : rng.below(16));
      if (c.flags & kFragment) {
        c.frag_count = static_cast<std::uint16_t>(rng.range(1, 40));
        c.frag_index = static_cast<std::uint16_t>(rng.below(c.frag_count));
      }
      c.ack_id = (c.flags & kAckRequest) ? rng.next() : 0;
      c.mac = (c.flags & kMac) ? rng.next() : 0;
      payloads.push_back(patterned_bytes(rng.below(48), rng.next()));
      c.payload = payloads.back();
    }
    Bytes wire = data_message(components);
    const std::optional<std::vector<Component>> clean = read_data(wire);
    ASSERT_TRUE(clean && same(*clean, components)) << "iteration " << i;

    // The component count, and the first component's payload size.
    const std::size_t size_at = kEnvelopeBytes + component_bytes(0, components[0].flags) - 4;
    mutate(rng, wire, {1, size_at, size_at + 1});
    const Bytes exact(wire);
    const std::optional<std::vector<Component>> first = read_data(exact);
    if (!first) continue;
    ++survivors;
    for (const Component& c : *first) {
      if (c.flags & kFragment) {
        EXPECT_LT(c.frag_index, c.frag_count) << "iteration " << i;
      }
    }
    // Re-encoding copies every payload byte the views claim.
    const Bytes again = data_message(*first);
    const std::optional<std::vector<Component>> second = read_data(again);
    ASSERT_TRUE(second && same(*second, *first)) << "iteration " << i;
  }
  EXPECT_GT(survivors, 1000);
}

// ----------------------------------------------------------------- faults

enum class Fault { kDrop, kDuplicate, kDelay5ms, kDelay300ms };

/// Impairs the n-th packet the medium judges (counting from 0) as `plan`
/// says; every other packet crosses untouched.
class NthPacketFaults final : public net::FaultHook {
 public:
  explicit NthPacketFaults(std::map<std::size_t, Fault> plan) : plan_(std::move(plan)) {}

  net::FaultVerdict judge(net::Packet&) override {
    net::FaultVerdict v;
    auto it = plan_.find(judged_++);
    if (it == plan_.end()) return v;
    switch (it->second) {
      case Fault::kDrop: v.drop = true; break;
      case Fault::kDuplicate: v.duplicates = 1; break;
      case Fault::kDelay5ms: v.delay = msec(5); break;
      case Fault::kDelay300ms: v.delay = msec(300); break;
    }
    return v;
  }
  std::size_t judged() const { return judged_; }

 private:
  std::map<std::size_t, Fault> plan_;
  std::size_t judged_ = 0;
};

struct Replay {
  bool exact = false;    ///< every byte arrived once, in order
  bool drained = false;  ///< the sender holds nothing unacknowledged
  std::size_t packets = 0;
  SubtransportLayer::Stats sender;
  SubtransportLayer::Stats receiver;
};

/// An 8 KB reliable transport transfer from host 1 to host 2 over one
/// untrusted Ethernet, with `plan`'s faults.
Replay replay(std::map<std::size_t, Fault> plan) {
  NthPacketFaults faults(std::move(plan));
  auto world = dash::testing::st_world(2);
  world.network->set_fault_hook(&faults);
  transport::StreamReceiver rx(world.st(2), world.node(2).ports, 60, {});
  transport::StreamSender tx(world.st(1), world.node(1).ports, {2, 60}, {});
  Bytes received;
  rx.on_data([&](Bytes b) { append(received, b); });
  const Bytes payload = patterned_bytes(8 * 1024, 11);
  EXPECT_TRUE(tx.write(payload).ok());
  world.sim.run_until(sec(20));
  return {received == payload, tx.drained(), faults.judged(), world.st(1).stats(),
          world.st(2).stats()};
}

std::string describe(const std::map<std::size_t, Fault>& plan) {
  static const char* const kNames[] = {"drop", "duplicate", "+5ms", "+300ms"};
  std::string s;
  for (const auto& [packet, fault] : plan) {
    s += std::string(kNames[static_cast<int>(fault)]) + " of packet " +
         std::to_string(packet) + "; ";
  }
  return s;
}

TEST(StControlFaults, TransferSurvivesEverySingleFaultAndEveryDropOrDuplicatePair) {
  const Replay clean = replay({});
  ASSERT_TRUE(clean.exact && clean.drained);
  EXPECT_EQ(clean.sender.auth_handshakes, 1u);     // the challenge/response ran
  EXPECT_EQ(clean.receiver.auth_handshakes, 1u);   // for the transport's ack stream too
  EXPECT_GE(clean.sender.st_rms_created, 1u);      // data stream
  EXPECT_GE(clean.receiver.st_rms_created, 1u);    // transport-ack stream
  EXPECT_GT(clean.receiver.fast_acks_sent, 0u);
  EXPECT_EQ(clean.sender.control_retries, 0u);

  std::vector<std::string> failures;
  auto run = [&](const std::map<std::size_t, Fault>& plan) {
    const Replay r = replay(plan);
    if (!r.exact || !r.drained) failures.push_back(describe(plan));
    return r.packets;
  };
  // Pairs range over every packet position any single-fault replay reached.
  std::size_t window = clean.packets;
  for (std::size_t n = 0; n < clean.packets; ++n) {
    for (Fault f : {Fault::kDrop, Fault::kDuplicate, Fault::kDelay5ms, Fault::kDelay300ms}) {
      window = std::max(window, run({{n, f}}));
    }
  }
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < window; ++a) {
    for (std::size_t b = a + 1; b < window; ++b) {
      for (Fault fa : {Fault::kDrop, Fault::kDuplicate}) {
        for (Fault fb : {Fault::kDrop, Fault::kDuplicate}) {
          run({{a, fa}, {b, fb}});
          ++pairs;
        }
      }
    }
  }
  EXPECT_GT(pairs, 1000u);
  EXPECT_TRUE(failures.empty()) << failures.size() << " replays failed; the first: "
                                << failures.front();
}

}  // namespace
}  // namespace dash::st
