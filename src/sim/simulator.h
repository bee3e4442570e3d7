// Discrete-event simulation core.
//
// The whole DASH reproduction runs on one single-threaded event loop: links,
// CPU schedulers, protocol timers, and workload generators all schedule
// callbacks here. Events at equal timestamps run in scheduling order, which
// makes every run bit-for-bit reproducible.
//
// The engine executes events in exact (time, seq) order — seq is a monotone
// schedule counter, so equal timestamps run FIFO — via one of two
// interchangeable ready structures:
//
//   * kCalendar (default): a 512-bucket timer wheel over the near future
//     (8.2 us buckets, ~4.2 ms window) with a binary-heap overflow tier for
//     everything beyond the window. Buckets collect entries unsorted and are
//     sorted once, when the wheel reaches them; because bucket index is
//     time >> shift (monotone in time) and overflow entries are strictly
//     beyond every wheel entry, draining buckets in order and each bucket in
//     (time, seq) order yields exactly the global (time, seq) order.
//     Schedule/pop are amortized O(1) for the dominant near-future workload.
//   * kHeap: the reference binary heap over the same Entry type. It exists
//     to prove determinism: tests run identical seeded workloads under both
//     modes and require identical traces.
//
// Timers (timer_at/timer_after) return a TimerHandle for O(1) cancellation.
// The timer's closure lives in a generation-checked slot; cancel() bumps the
// generation and destroys the closure immediately, leaving only a 24-byte
// tombstone in the ready structure that is skipped on contact. pending()
// counts live work only — cancelled timers leave it at cancel time.
//
// A Simulator whose clock an rt::Driver owns reports wall_clock(): its time
// is the host's monotonic clock, so layers that model CPU time
// (sim::CpuScheduler) measure it instead of waiting it out.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/task.h"
#include "util/time.h"

namespace dash::rt {
class Driver;
}  // namespace dash::rt

namespace dash::sim {

using dash::Time;

/// Which ready structure the Simulator uses. Both execute events in
/// identical (time, seq) order; kHeap is the reference path kept for
/// determinism cross-checks.
enum class EngineMode : std::uint8_t { kCalendar, kHeap };

/// Engine-level counters, exported to telemetry (see telemetry/collect.h).
struct EngineStats {
  std::uint64_t executed = 0;         ///< events run
  std::uint64_t scheduled = 0;        ///< at/after/timer_* calls
  std::uint64_t scheduled_inline = 0; ///< tasks stored in Task's inline SBO
  std::uint64_t scheduled_heap = 0;   ///< tasks that fell back to the heap
  std::uint64_t timers_created = 0;
  std::uint64_t timers_cancelled = 0;
  std::uint64_t overflow_events = 0;  ///< entries that bypassed the wheel
  std::uint64_t peak_pending = 0;     ///< max live pending ever observed
};

/// Opaque ticket for a cancellable timer. Default-constructed handles are
/// inert; cancelling an already-fired or already-cancelled timer is a no-op.
class TimerHandle {
 public:
  TimerHandle() = default;
  bool valid() const { return slot_ != kInvalid; }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  TimerHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = kInvalid;
  std::uint32_t generation_ = 0;
};

/// The event loop. Create one per experiment; pass by reference to every
/// component that needs the clock or timers.
class Simulator {
 public:
  explicit Simulator(EngineMode mode = EngineMode::kCalendar) : mode_(mode) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }
  EngineMode mode() const { return mode_; }

  /// True once an rt::Driver owns this clock (set by its constructor and
  /// nowhere else): now() is wall time and CPU work is real, not modelled.
  bool wall_clock() const { return wall_clock_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  void at(Time t, Task fn) {
    if (t < now_) t = now_;
    count_scheduled(fn);
    Entry e;
    e.time = t;
    e.seq = next_seq_++;
    e.fn = std::move(fn);
    admit(std::move(e));
  }

  /// Schedules `fn` after `delay` nanoseconds.
  void after(Time delay, Task fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at absolute time `t` and returns a handle that cancels
  /// it in O(1). The closure is destroyed at cancel time, not at fire time.
  TimerHandle timer_at(Time t, Task fn) {
    if (t < now_) t = now_;
    count_scheduled(fn);
    ++stats_.timers_created;
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.fn = std::move(fn);
    Entry e;
    e.time = t;
    e.seq = next_seq_++;
    e.slot = idx;
    e.generation = s.generation;
    admit(std::move(e));
    return TimerHandle(idx, s.generation);
  }

  /// Schedules a cancellable timer after `delay` nanoseconds.
  TimerHandle timer_after(Time delay, Task fn) {
    return timer_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending timer. Returns true if it was still live; false if
  /// it already fired, was already cancelled, or `h` is inert. `h` is reset
  /// either way. The cancelled timer leaves pending() immediately.
  bool cancel(TimerHandle& h) {
    if (!h.valid() || h.slot_ >= slots_.size() ||
        slots_[h.slot_].generation != h.generation_) {
      h = TimerHandle();
      return false;
    }
    release_slot(h.slot_);
    h = TimerHandle();
    --live_;
    ++stats_.timers_cancelled;
    return true;
  }

  /// True if the timer behind `h` has neither fired nor been cancelled.
  bool timer_active(const TimerHandle& h) const {
    return h.valid() && h.slot_ < slots_.size() &&
           slots_[h.slot_].generation == h.generation_;
  }

  /// Runs the earliest pending event. Returns false if none remain.
  bool step() {
    Entry* e = peek();
    if (e == nullptr) return false;
    now_ = e->time;
    Task fn;
    if (e->slot != kNoSlot) {
      fn = std::move(slots_[e->slot].fn);
      release_slot(e->slot);
    } else {
      fn = std::move(e->fn);
    }
    drop_front();
    --live_;
    ++stats_.executed;
    fn();
    return true;
  }

  /// Runs until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(Time t) {
    for (;;) {
      Entry* e = peek();
      if (e == nullptr || e->time > t) break;
      step();
    }
    if (now_ < t) now_ = t;
  }

  /// Runs events for the next `d` nanoseconds of simulated time, then
  /// advances the clock to exactly now() + d.
  void run_for(Time d) { run_until(now_ + d); }

  /// Timestamp of the earliest live pending event, or kTimeNever when the
  /// simulator is idle. May purge tombstones of cancelled timers (the
  /// answer is authoritative); rt::Driver sizes its poll timeout from this.
  Time next_event_time() {
    Entry* e = peek();
    return e == nullptr ? kTimeNever : e->time;
  }

  /// Number of live pending events. Cancelled timers are excluded from the
  /// moment cancel() returns.
  std::size_t pending() const { return live_; }

  /// Physical entries in the ready structure, including tombstones of
  /// cancelled timers that have not been swept yet (tests/debugging).
  std::size_t stored() const { return stored_; }

  const EngineStats& stats() const { return stats_; }

 private:
  friend class rt::Driver;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr int kBucketShift = 13;  // 8192 ns per bucket
  static constexpr int kWheelBits = 9;
  static constexpr int kBuckets = 1 << kWheelBits;  // ~4.2 ms window
  static constexpr int kWords = kBuckets / 64;

  struct Entry {
    Time time = 0;
    std::uint64_t seq = 0;
    Task fn;  // empty for timer entries: their closure lives in the slot
    std::uint32_t slot = kNoSlot;
    std::uint32_t generation = 0;
  };

  struct Slot {
    Task fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };

  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  // std::push_heap builds a max-heap; invert to get the min-(time, seq)
  // entry on top.
  static bool entry_after(const Entry& a, const Entry& b) {
    return entry_less(b, a);
  }

  bool is_stale(const Entry& e) const {
    return e.slot != kNoSlot && slots_[e.slot].generation != e.generation;
  }

  void count_scheduled(const Task& fn) {
    ++stats_.scheduled;
    if (fn.heap_allocated()) {
      ++stats_.scheduled_heap;
    } else {
      ++stats_.scheduled_inline;
    }
    ++live_;
    ++stored_;
    if (live_ > stats_.peak_pending) stats_.peak_pending = live_;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slots_[idx].next_free;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  // Destroys the slot's closure now, invalidates outstanding handles and
  // ready-structure entries (their generation no longer matches), and
  // recycles the slot.
  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.fn = Task();
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  static Time bucket_of(Time t) { return t >> kBucketShift; }

  void set_bit(int slot) { bitmap_[slot >> 6] |= 1ull << (slot & 63); }
  void clear_bit(int slot) { bitmap_[slot >> 6] &= ~(1ull << (slot & 63)); }

  /// First nonempty bucket slot at or (circularly) after `from`, or -1.
  int scan_from(int from) const {
    for (int i = 0; i <= kWords; ++i) {
      const int w = ((from >> 6) + i) % kWords;
      std::uint64_t bits = bitmap_[w];
      if (i == 0) {
        bits &= ~0ull << (from & 63);
      } else if (i == kWords) {
        bits &= (from & 63) != 0 ? ~(~0ull << (from & 63)) : 0ull;
      }
      if (bits != 0) return w * 64 + std::countr_zero(bits);
    }
    return -1;
  }

  void admit(Entry&& e) {
    if (mode_ == EngineMode::kHeap) {
      heap_.push_back(std::move(e));
      std::push_heap(heap_.begin(), heap_.end(), entry_after);
      return;
    }
    Time ab = bucket_of(e.time);
    // The window start can outrun the clock when peek() advanced the wheel
    // without executing yet (run_until boundary probes, empty-wheel jumps).
    // Folding such entries into the current bucket keeps exact (time, seq)
    // order: everything still pending is later than them.
    if (ab < cur_bucket_) ab = cur_bucket_;
    if (ab >= cur_bucket_ + kBuckets) {
      ++stats_.overflow_events;
      overflow_.push_back(std::move(e));
      std::push_heap(overflow_.begin(), overflow_.end(), entry_after);
      return;
    }
    const int slot = static_cast<int>(ab & (kBuckets - 1));
    auto& b = buckets_[slot];
    if (slot == cur_slot_ && cur_open_) {
      // The bucket being drained is kept sorted; splice into its live tail.
      // A zero-delay chain parked in front of a later entry keeps the
      // bucket open indefinitely, so drop the consumed prefix once it is
      // more than half the bucket (amortized O(1) per entry).
      if (pos_ > b.size() / 2) {
        b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
      }
      auto it = std::upper_bound(b.begin() + static_cast<std::ptrdiff_t>(pos_),
                                 b.end(), e, entry_less);
      b.insert(it, std::move(e));
    } else {
      b.push_back(std::move(e));
    }
    set_bit(slot);
  }

  /// Moves every overflow entry that now fits the window into the wheel,
  /// dropping tombstones on the way.
  void refill_from_overflow() {
    while (!overflow_.empty() &&
           bucket_of(overflow_.front().time) < cur_bucket_ + kBuckets) {
      std::pop_heap(overflow_.begin(), overflow_.end(), entry_after);
      Entry e = std::move(overflow_.back());
      overflow_.pop_back();
      if (is_stale(e)) {
        --stored_;
        continue;
      }
      const int slot = static_cast<int>(bucket_of(e.time) & (kBuckets - 1));
      buckets_[slot].push_back(std::move(e));
      set_bit(slot);
    }
  }

  /// Next live entry in exact (time, seq) order, or nullptr. Purges every
  /// tombstone it touches, so the returned entry's time is authoritative
  /// (run_until's boundary check relies on this).
  Entry* peek() {
    if (mode_ == EngineMode::kHeap) {
      while (!heap_.empty() && is_stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), entry_after);
        heap_.pop_back();
        --stored_;
      }
      return heap_.empty() ? nullptr : &heap_.front();
    }
    for (;;) {
      if (cur_open_) {
        auto& b = buckets_[cur_slot_];
        while (pos_ < b.size()) {
          Entry& e = b[pos_];
          if (is_stale(e)) {
            ++pos_;
            --stored_;
            continue;
          }
          return &e;
        }
        b.clear();
        pos_ = 0;
        clear_bit(cur_slot_);
        cur_open_ = false;
      }
      const int next = scan_from(cur_slot_);
      if (next >= 0) {
        const int dist = (next - cur_slot_) & (kBuckets - 1);
        cur_bucket_ += dist;
        cur_slot_ = next;
        if (dist > 0) refill_from_overflow();
      } else {
        // Wheel empty: jump the window to the earliest overflow entry.
        while (!overflow_.empty() && is_stale(overflow_.front())) {
          std::pop_heap(overflow_.begin(), overflow_.end(), entry_after);
          overflow_.pop_back();
          --stored_;
        }
        if (overflow_.empty()) return nullptr;
        cur_bucket_ = bucket_of(overflow_.front().time);
        cur_slot_ = static_cast<int>(cur_bucket_ & (kBuckets - 1));
        refill_from_overflow();
        continue;  // the scan now finds the refilled bucket
      }
      auto& b = buckets_[cur_slot_];
      std::sort(b.begin(), b.end(), entry_less);
      pos_ = 0;
      cur_open_ = true;
    }
  }

  /// Removes the entry peek() just returned. Only valid right after a
  /// non-null peek(), before any callback runs.
  void drop_front() {
    --stored_;
    if (mode_ == EngineMode::kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), entry_after);
      heap_.pop_back();
      return;
    }
    ++pos_;
  }

  EngineMode mode_;
  bool wall_clock_ = false;  // set only by rt::Driver's constructor
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;    // live pending events
  std::size_t stored_ = 0;  // physical entries incl. tombstones
  EngineStats stats_;

  // Timer slots.
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  // kCalendar state. Window covers absolute buckets
  // [cur_bucket_, cur_bucket_ + kBuckets); everything later overflows.
  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::array<std::uint64_t, kWords> bitmap_{};
  std::vector<Entry> overflow_;
  Time cur_bucket_ = 0;    // absolute bucket index at the window start
  int cur_slot_ = 0;       // cur_bucket_ & (kBuckets - 1)
  std::size_t pos_ = 0;    // drain position within the open bucket
  bool cur_open_ = false;  // current bucket sorted and being drained

  // kHeap state.
  std::vector<Entry> heap_;
};

}  // namespace dash::sim
