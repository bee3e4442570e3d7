// A simplex serialized link: the basic transmission resource.
//
// A link drains its transmit queue one packet at a time at the configured
// bit rate, delivers after the propagation delay, and injects bit errors.
// Gateways in the internet-like network reserve per-stream buffer shares
// here — the mechanism behind the paper's claim that RMS capacity protects
// gateway buffers where TCP's flow control does not (§4.4, §5).
#pragma once

#include <cstdint>
#include <map>

#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace dash::net {

class SimplexLink {
 public:
  struct Config {
    std::uint64_t bits_per_second = 10'000'000;
    Time propagation_delay = usec(10);
    double bit_error_rate = 0.0;
    Discipline discipline = Discipline::kDeadline;
    /// Byte capacity of the transmit queue; 0 = unbounded.
    std::uint64_t buffer_bytes = 64 * 1024;
    /// Fixed serialization overhead per packet (preamble, framing), bytes.
    std::uint32_t framing_bytes = 24;
  };

  struct Stats {
    std::uint64_t sent = 0;             ///< packets accepted into the queue
    std::uint64_t delivered = 0;        ///< packets handed to the sink
    std::uint64_t bytes_delivered = 0;
    std::uint64_t dropped_overflow = 0; ///< queue full
    std::uint64_t dropped_down = 0;     ///< link was down
    std::uint64_t corrupted = 0;        ///< delivered with bit errors
    Time busy_time = 0;                 ///< cumulative transmission time
  };

  SimplexLink(sim::Simulator& sim, Config config, Rng rng)
      : sim_(sim),
        config_(config),
        rng_(rng),
        // admit() is the single source of truth for buffer bounds (it
        // understands per-stream reservations), so the queue is unbounded.
        queue_(config.discipline, 0) {}

  SimplexLink(const SimplexLink&) = delete;
  SimplexLink& operator=(const SimplexLink&) = delete;

  /// Where delivered packets go (the far-end interface or router).
  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Enqueues a packet for transmission. Returns false if it was dropped
  /// (link down, queue overflow, or stream over its buffer share).
  bool send(Packet p);

  /// Reserves `bytes` of this link's buffer for `stream` (deterministic
  /// RMS admission). Fails if reservations would exceed the buffer.
  bool reserve(std::uint64_t stream, std::uint64_t bytes);
  void release(std::uint64_t stream);

  /// Failure injection: while down, sends and deliveries are dropped.
  void set_down(bool down);
  bool down() const { return down_; }

  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t queue_dropped() const { return queue_.dropped(); }
  std::uint64_t queued_bytes() const { return queue_.bytes(); }

 private:
  void try_transmit();
  void deliver(Packet p);
  bool admit(const Packet& p);
  void note_popped(const Packet& p);

  sim::Simulator& sim_;
  Config config_;
  Rng rng_;
  TxQueue queue_;
  PacketSink sink_;
  bool busy_ = false;
  bool down_ = false;
  Stats stats_;

  // Per-stream buffer accounting (reservation and current occupancy).
  std::map<std::uint64_t, std::uint64_t> reservation_;
  std::map<std::uint64_t, std::uint64_t> stream_queued_;
  std::uint64_t reserved_total_ = 0;
  std::uint64_t shared_queued_ = 0;  ///< queued bytes charged to the shared pool
};

}  // namespace dash::net
