// Transmit queues with pluggable discipline (paper §4.1, §4.3.1).
//
// "For network RMS, deadlines are used to determine the order in which
// packets are queued for transmission on a network interface." The deadline
// discipline is stable EDF over (deadline, seq), which yields exactly the
// paper's refinement of sequenced delivery: if packet A is enqueued after B
// with a deadline >= B's, then B leaves first. FIFO and static-priority
// disciplines exist as the baselines the paper argues against.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "net/packet.h"

namespace dash::net {

enum class Discipline : std::uint8_t { kDeadline, kFifo, kPriority };

const char* discipline_name(Discipline d);

/// A byte-bounded drop-tail transmit queue.
class TxQueue {
 public:
  /// `byte_capacity` bounds total queued payload bytes; pushes beyond it
  /// are dropped (and counted). 0 means unbounded.
  explicit TxQueue(Discipline d, std::uint64_t byte_capacity = 0)
      : discipline_(d), byte_capacity_(byte_capacity) {}

  /// Enqueues; returns false (drop) on overflow.
  bool push(Packet p) {
    if (byte_capacity_ != 0 && bytes_ + p.size() > byte_capacity_) {
      ++dropped_;
      return false;
    }
    bytes_ += p.size();
    ++pushed_;
    heap_.push(Entry{std::move(p), discipline_, next_arrival_++});
    return true;
  }

  /// Removes and returns the most urgent packet per the discipline.
  std::optional<Packet> pop() {
    if (heap_.empty()) return std::nullopt;
    // The heap stores const refs; copy out before pop.
    Packet p = heap_.top().packet;
    heap_.pop();
    bytes_ -= p.size();
    return p;
  }

  /// The deadline of the most urgent packet (kTimeNever when empty).
  Time head_deadline() const {
    return heap_.empty() ? kTimeNever : heap_.top().packet.deadline;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t packets() const { return heap_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t byte_capacity() const { return byte_capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t pushed() const { return pushed_; }
  Discipline discipline() const { return discipline_; }

 private:
  struct Entry {
    Packet packet;
    Discipline discipline;
    std::uint64_t arrival;
  };

  struct LessUrgent {
    bool operator()(const Entry& a, const Entry& b) const {
      switch (a.discipline) {
        case Discipline::kDeadline:
          if (a.packet.deadline != b.packet.deadline)
            return a.packet.deadline > b.packet.deadline;
          break;
        case Discipline::kFifo:
          break;
        case Discipline::kPriority:
          if (a.packet.priority != b.packet.priority)
            return a.packet.priority > b.packet.priority;
          break;
      }
      return a.arrival > b.arrival;  // stable among equals
    }
  };

  Discipline discipline_;
  std::uint64_t byte_capacity_;
  std::priority_queue<Entry, std::vector<Entry>, LessUrgent> heap_;
  std::uint64_t bytes_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t next_arrival_ = 0;
};

}  // namespace dash::net
