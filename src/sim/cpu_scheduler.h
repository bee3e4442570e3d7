// Per-host CPU model with pluggable short-term scheduling policy.
//
// Paper §4.1: when a message is sent on an upper-level RMS, its total delay
// is divided among stages, and protocol-process execution order is chosen by
// the short-term scheduler using per-message deadlines. We model each host's
// CPU as a single server executing protocol-processing tasks of known
// duration; the policy chooses which queued task runs next:
//   * kEdf       — earliest deadline first (what DASH requires),
//   * kFifo      — arrival order (a conventional kernel),
//   * kPriority  — static priority, FIFO within a priority (a priority
//                  kernel, the paper's "systems that use only priorities").
// Tasks are non-preemptive, which matches 1987 kernel protocol processing
// (a process runs until it blocks).
//
// In simulation a task's `duration` is modelled CPU time: it completes that
// long after dispatch. When an rt::Driver owns the clock
// (Simulator::wall_clock()), waiting out the model would turn it into real
// idle time, so a dispatched task runs at once and busy_time() charges its
// measured steady-clock time; the policy still picks the order.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "util/time.h"

namespace dash::sim {

enum class CpuPolicy : std::uint8_t { kEdf, kFifo, kPriority };

const char* cpu_policy_name(CpuPolicy p);

class CpuScheduler {
 public:
  CpuScheduler(Simulator& sim, CpuPolicy policy)
      : sim_(sim), policy_(policy) {}

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  /// Submits a protocol-processing task: `fn` completes after `duration` of
  /// CPU time once the task is dispatched (at once under a wall clock).
  /// `deadline` orders EDF; `priority` orders kPriority (lower value = more
  /// urgent).
  void submit(Time deadline, Time duration, Task fn, int priority = 0) {
    queue_.push_back(
        CpuTask{deadline, priority, next_seq_++, duration, std::move(fn), policy_});
    std::push_heap(queue_.begin(), queue_.end(), LessUrgent{});
    ++submitted_;
    if (!busy_) dispatch();
  }

  /// Total CPU time consumed so far (utilization accounting for benches):
  /// modelled durations in simulation, measured time under a wall clock.
  Time busy_time() const { return busy_time_; }
  std::uint64_t tasks_completed() const { return completed_; }
  std::uint64_t tasks_submitted() const { return submitted_; }
  CpuPolicy policy() const { return policy_; }

 private:
  struct CpuTask {
    Time deadline;
    int priority;
    std::uint64_t seq;
    Time duration;
    Task fn;
    CpuPolicy policy;
  };

  struct LessUrgent {
    bool operator()(const CpuTask& a, const CpuTask& b) const {
      switch (a.policy) {
        case CpuPolicy::kEdf:
          if (a.deadline != b.deadline) return a.deadline > b.deadline;
          break;
        case CpuPolicy::kFifo:
          break;
        case CpuPolicy::kPriority:
          if (a.priority != b.priority) return a.priority > b.priority;
          break;
      }
      return a.seq > b.seq;  // stable: FIFO among equals
    }
  };

  void dispatch() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    std::pop_heap(queue_.begin(), queue_.end(), LessUrgent{});
    CpuTask t = std::move(queue_.back());
    queue_.pop_back();
    // The CPU is non-preemptive: exactly one task runs at a time, so it can
    // sit in running_ while the completion event carries only `this` (which
    // keeps the completion closure inside Task's inline storage).
    running_ = std::move(t.fn);
    const bool measured = sim_.wall_clock();
    if (!measured) busy_time_ += t.duration;
    sim_.after(measured ? 0 : t.duration, [this] { finish(); });
  }

  void finish() {
    ++completed_;
    Task fn = std::move(running_);
    if (sim_.wall_clock()) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      busy_time_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    } else {
      fn();
    }
    dispatch();
  }

  Simulator& sim_;
  CpuPolicy policy_;
  std::vector<CpuTask> queue_;  // heap ordered by LessUrgent
  std::uint64_t next_seq_ = 0;
  bool busy_ = false;
  Task running_;
  Time busy_time_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t submitted_ = 0;
};

}  // namespace dash::sim
