// Wall-clock event-loop driver (DESIGN.md §16).
//
// The whole DASH stack — protocol timers, rate-based pumps, adaptive RTO,
// path-manager probes — schedules work on one sim::Simulator. In a
// simulation the engine's clock jumps from event to event; the Driver
// instead slaves that same calendar queue to the host's monotonic clock,
// so every existing timer fires in real time and the unmodified ST /
// RKOM / path-manager code runs over real I/O (the socket-backed
// net::UdpNetwork, src/net/udp).
//
// The loop is the classic reactor: run every simulator event whose time
// has arrived, compute the sleep until Simulator::next_event_time(), and
// epoll-wait on the registered file descriptors for at most that long.
// Socket readiness wakes the loop early; the fd's callback runs between
// event bursts and typically injects new simulator work at the current
// time (a received packet entering the delivery path). That wait is the
// only sleep in the stack, so the driver runs its thread with 1 ns timer
// slack: a due timer wakes on time, not up to the default 50 us late.
//
// Timebase: the simulator's nanosecond clock is anchored to the monotonic
// clock on the first run_* call (epoch = monotonic_now - sim.now()), so a
// world built at sim time 0 starts "now" and Time values stay one
// currency across the stack. Single-threaded: fd callbacks and simulator
// events all run on the calling thread, exactly like a simulation run.
//
// CPU time: the constructor marks the simulator wall_clock(), so every
// sim::CpuScheduler on it runs protocol tasks at once (still in EDF /
// FIFO / priority order) and charges their measured time, instead of
// sleeping through the modelled 1987-workstation cost.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/simulator.h"
#include "util/result.h"
#include "util/time.h"

namespace dash::rt {

/// Current monotonic clock reading in nanoseconds (CLOCK_MONOTONIC).
Time monotonic_now();

class Driver {
 public:
  /// Counters exported to telemetry ("rt.*", see telemetry/collect.h).
  struct Stats {
    std::uint64_t polls = 0;          ///< epoll waits issued
    std::uint64_t wakeups_io = 0;     ///< polls that returned >= 1 fd event
    std::uint64_t wakeups_timer = 0;  ///< polls that timed out into a timer
    std::uint64_t io_dispatches = 0;  ///< fd callbacks invoked
    std::uint64_t events_run = 0;     ///< simulator events executed under us
    std::uint64_t fds_registered = 0; ///< add_fd calls over the lifetime
    /// Worst observed lateness of a due simulator event (wall time when it
    /// ran minus its scheduled time) — the driver's answer to "how far is
    /// real time from the simulated timing model".
    Time max_lateness = 0;
  };

  /// Receives the ready EPOLL* event mask for its file descriptor.
  using IoCallback = std::function<void(std::uint32_t)>;

  /// Takes over `sim`'s clock for good: marks it wall_clock(). Also sets
  /// the calling thread's timer slack to 1 ns; the destructor puts the
  /// previous slack back, so drivers on one thread must nest.
  explicit Driver(sim::Simulator& sim);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  sim::Simulator& simulator() { return sim_; }

  /// Registers `fd` for the EPOLL* mask `events` (typically EPOLLIN). The
  /// callback runs on the driver thread between simulator event bursts;
  /// it must not block. One callback per fd; re-adding replaces the mask
  /// and callback.
  Status add_fd(int fd, std::uint32_t events, IoCallback cb);

  /// Changes the event mask of a registered fd (e.g. adding EPOLLOUT while
  /// a send backlog drains).
  Status modify_fd(int fd, std::uint32_t events);

  /// Unregisters `fd`. Safe to call from inside an IoCallback (including
  /// the fd's own). The caller still owns — and closes — the descriptor.
  void remove_fd(int fd);

  /// Wall clock on the simulator's timebase: what sim::Simulator::now()
  /// is about to become. Before the first run_* call this is sim.now().
  Time now() const;

  /// Runs the loop for `wall` nanoseconds of real time: executes due
  /// simulator events, dispatches fd readiness, sleeps the gaps.
  void run_for(Time wall);

  /// Runs until `done()` returns true, or `max_wall` real nanoseconds
  /// elapse. Returns true iff `done()` turned true in time.
  bool run_until(const std::function<bool()>& done, Time max_wall);

  /// Makes the innermost run_* return after the current dispatch.
  void stop() { stopped_ = true; }

  const Stats& stats() const { return stats_; }

 private:
  struct FdEntry {
    IoCallback cb;
    std::uint32_t events = 0;
  };

  void ensure_epoch();
  /// Runs every simulator event due at the current wall reading.
  void advance();
  /// One epoll wait of at most `max_wait` (>= 0), then dispatch.
  void poll_once(Time max_wait);

  sim::Simulator& sim_;
  int epfd_ = -1;
  std::unordered_map<int, FdEntry> fds_;
  Time epoch_ = -1;  ///< monotonic ns corresponding to sim time 0; -1 unset
  int saved_timer_slack_ = -1;  ///< thread's slack (ns) before us; -1 untouched
  bool stopped_ = false;
  Stats stats_;
};

}  // namespace dash::rt
