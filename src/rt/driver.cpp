#include "rt/driver.h"

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

namespace dash::rt {

Time monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Driver::Driver(sim::Simulator& sim) : sim_(sim) {
  sim_.wall_clock_ = true;
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  // The kernel may end a timed wait up to the thread's timer slack late
  // (50 us by default). At 1 ns it adds only its own 0.1% of the timeout
  // (DESIGN.md §16); 0 would mean "reset to the default".
  saved_timer_slack_ = prctl(PR_GET_TIMERSLACK);
  if (saved_timer_slack_ > 0) prctl(PR_SET_TIMERSLACK, 1UL);
}

Driver::~Driver() {
  if (saved_timer_slack_ > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_timer_slack_));
  }
  if (epfd_ >= 0) close(epfd_);
}

Status Driver::add_fd(int fd, std::uint32_t events, IoCallback cb) {
  if (epfd_ < 0) return make_error(Errc::kInternal, "epoll unavailable");
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const bool known = fds_.count(fd) != 0;
  if (epoll_ctl(epfd_, known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev) != 0) {
    return make_error(Errc::kInternal,
                      std::string("epoll_ctl: ") + std::strerror(errno));
  }
  fds_[fd] = FdEntry{std::move(cb), events};
  if (!known) ++stats_.fds_registered;
  return Status::ok_status();
}

Status Driver::modify_fd(int fd, std::uint32_t events) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return make_error(Errc::kInternal, "fd not registered");
  if (it->second.events == events) return Status::ok_status();
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return make_error(Errc::kInternal,
                      std::string("epoll_ctl mod: ") + std::strerror(errno));
  }
  it->second.events = events;
  return Status::ok_status();
}

void Driver::remove_fd(int fd) {
  if (fds_.erase(fd) == 0) return;
  epoll_event ev{};  // non-null for pre-2.6.9 kernels, per epoll_ctl(2)
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

void Driver::ensure_epoch() {
  if (epoch_ < 0) epoch_ = monotonic_now() - sim_.now();
}

Time Driver::now() const {
  return epoch_ < 0 ? sim_.now() : monotonic_now() - epoch_;
}

void Driver::advance() {
  const Time wall = now();
  const Time next = sim_.next_event_time();
  if (next != kTimeNever && next <= wall) {
    const Time late = wall - next;
    if (late > stats_.max_lateness) stats_.max_lateness = late;
  }
  const std::uint64_t before = sim_.stats().executed;
  sim_.run_until(wall);
  stats_.events_run += sim_.stats().executed - before;
}

void Driver::poll_once(Time max_wait) {
  constexpr int kMaxEvents = 64;
  epoll_event evs[kMaxEvents];
  if (max_wait < 0) max_wait = 0;
  timespec ts{};
  ts.tv_sec = max_wait / 1'000'000'000;
  ts.tv_nsec = max_wait % 1'000'000'000;
  ++stats_.polls;
  int n = epoll_pwait2(epfd_, evs, kMaxEvents, &ts, nullptr);
  if (n < 0) {
    if (errno != EINTR) stopped_ = true;  // epoll broke; do not spin
    return;
  }
  if (n == 0) {
    ++stats_.wakeups_timer;
    return;
  }
  ++stats_.wakeups_io;
  for (int i = 0; i < n; ++i) {
    // Re-find per dispatch: an earlier callback may have removed this fd.
    auto it = fds_.find(evs[i].data.fd);
    if (it == fds_.end() || !it->second.cb) continue;
    ++stats_.io_dispatches;
    it->second.cb(evs[i].events);
  }
}

void Driver::run_for(Time wall) {
  ensure_epoch();
  stopped_ = false;
  const Time end = now() + wall;
  while (!stopped_) {
    advance();
    const Time current = now();
    if (current >= end) break;
    Time wait = end - current;
    const Time next = sim_.next_event_time();
    if (next != kTimeNever && next - current < wait) wait = next - current;
    poll_once(wait);
  }
}

bool Driver::run_until(const std::function<bool()>& done, Time max_wall) {
  ensure_epoch();
  stopped_ = false;
  const Time end = now() + max_wall;
  for (;;) {
    advance();
    if (done()) return true;
    if (stopped_) return false;
    const Time current = now();
    if (current >= end) return false;
    Time wait = end - current;
    const Time next = sim_.next_event_time();
    if (next != kTimeNever && next - current < wait) wait = next - current;
    poll_once(wait);
  }
}

}  // namespace dash::rt
