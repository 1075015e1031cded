#include "net/real_time_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <ctime>
#include <stdexcept>

namespace raincore::net {

namespace {

constexpr int kMaxEpollEvents = 64;

// Timer slack is per thread; the default 50 us would defer every wake,
// exact ones included.
void use_minimal_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

}  // namespace

RealTimeLoop::RealTimeLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    throw std::runtime_error("eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: the counter stays readable until
                        // drained, so a wake between iterations is never lost
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    close(wake_fd_);
    close(epoll_fd_);
    throw std::runtime_error("epoll_ctl(wake_fd) failed");
  }
}

RealTimeLoop::~RealTimeLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

TimerId RealTimeLoop::schedule_at(Time when, EventFn fn) {
  return timers_.push(std::max(when, now()), std::move(fn));
}

TimerId RealTimeLoop::schedule_exact_at(Time when, EventFn fn) {
  return timers_.push(std::max(when, now()), std::move(fn), /*exact=*/true);
}

void RealTimeLoop::fire_due() {
  // A handler's zero-delay timer is clamped to a later clock reading than
  // `t`, so it fires on the next drain, before any later deadline.
  const Time t = now();
  while (auto timer = timers_.pop_due(t)) timer->fn();
}

void RealTimeLoop::post(EventFn fn) {
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void RealTimeLoop::wake() {
  std::uint64_t one = 1;
  // A full eventfd counter (~2^64) cannot happen here; short write means
  // the loop is already guaranteed awake.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void RealTimeLoop::drain_posted() {
  std::vector<EventFn> batch;
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    batch.swap(posted_);
  }
  for (EventFn& fn : batch) fn();
}

void RealTimeLoop::watch_fd(int fd, FdFn on_ready) {
  bool existing = fd_handlers_.count(fd) > 0;
  fd_handlers_[fd] = std::move(on_ready);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = fd;
  int op = existing ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    fd_handlers_.erase(fd);
    throw std::runtime_error("epoll_ctl(watch_fd) failed");
  }
}

void RealTimeLoop::unwatch_fd(int fd) {
  if (fd_handlers_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

bool RealTimeLoop::iterate(Time deadline) {
  if (stop_.load(std::memory_order_acquire)) return false;

  drain_posted();
  if (service_) service_();
  fire_due();

  // Block until the earliest of: next timer, run_for deadline, an fd
  // becoming readable, or an eventfd wake from post()/stop(). The wait is
  // rounded up to whole ms, unless an exact timer falls due before that.
  Time next = timers_.next_deadline();
  if (deadline >= 0 && (next < 0 || deadline < next)) next = deadline;
  int timeout_ms = -1;
  Time exact_ns = -1;
  if (next >= 0) {
    const Time t = now();
    const Time gap = next - t;
    if (gap <= 0) {
      timeout_ms = 0;
    } else {
      // Round up so we never wake a hair early and spin.
      timeout_ms = static_cast<int>((gap + kNanosPerMilli - 1) / kNanosPerMilli);
      const Time exact = timers_.next_exact_deadline();
      if (exact >= 0 && exact - t < timeout_ms * kNanosPerMilli) {
        exact_ns = exact - t;
      }
    }
  }

  epoll_event events[kMaxEpollEvents];
  const int n = wait(events, timeout_ms, exact_ns);

  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t count = 0;
      while (read(wake_fd_, &count, sizeof(count)) > 0) {
      }
      continue;
    }
    auto it = fd_handlers_.find(fd);
    if (it == fd_handlers_.end()) continue;  // unwatched by an earlier handler
    FdFn handler = it->second;  // copy: the handler may unwatch itself
    handler(events[i].events);
  }

  drain_posted();
  if (service_) service_();
  fire_due();
  return !stop_.load(std::memory_order_acquire);
}

int RealTimeLoop::wait(epoll_event* events, int timeout_ms, Time exact_ns) {
  int n;
  if (exact_ns >= 0 && exact_waits_) {
    const timespec ts{static_cast<std::time_t>(exact_ns / kNanosPerSec),
                      static_cast<long>(exact_ns % kNanosPerSec)};
    n = epoll_pwait2(epoll_fd_, events, kMaxEpollEvents, &ts, nullptr);
    if (n < 0 && (errno == ENOSYS || errno == EPERM)) {
      exact_waits_ = false;
      n = epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
    }
  } else {
    n = epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  }
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
  return n < 0 ? 0 : n;
}

void RealTimeLoop::run() {
  use_minimal_timer_slack();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  while (iterate(-1)) {
  }
  drain_posted();
  running_.store(false, std::memory_order_release);
}

void RealTimeLoop::run_for(Time d) {
  use_minimal_timer_slack();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  Time deadline = now() + d;
  while (now() < deadline && iterate(deadline)) {
  }
  drain_posted();
  fire_due();
  running_.store(false, std::memory_order_release);
}

void RealTimeLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

}  // namespace raincore::net
