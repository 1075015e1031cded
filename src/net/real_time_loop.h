// Epoll-backed real-time event loop: the production counterpart of the
// virtual-time EventLoop, behind the same net::Scheduler interface.
//
// One loop owns one thread. Inside that thread it multiplexes three event
// sources:
//   * non-blocking fds registered with watch_fd() (edge-triggered EPOLLIN
//     — handlers must drain until EAGAIN),
//   * timers in a TimerQueue, the simulator loop's own timer store
//     (schedule_at/cancel, the same Scheduler contract),
//   * closures post()ed from other threads, handed over under a short
//     mutex and signalled through an eventfd so a blocked epoll_wait wakes
//     immediately.
//
// post() is the ONLY cross-thread entry point; schedule/cancel/watch_fd
// belong to the loop thread (calling them before run() starts, while the
// owning thread is still setting up, is also fine).
//
// The wait ends at the queue's next deadline, with no periodic tick when
// idle, and timers come in two classes:
//   * ordinary (schedule_at): the wait is rounded up to whole
//     milliseconds, so a thread re-arming a sub-millisecond ticker (a load
//     generator's next due time) wakes about once per ms and fires every
//     overdue tick in deadline order, not once per tick;
//   * exact (schedule_exact_at): when its deadline falls before that
//     rounded wake, the loop sleeps to it with nanosecond precision
//     (epoll_pwait2), and run()/run_for() set the thread's timer slack to
//     1 ns so the kernel does not defer the wake by its default 50 us.
//     Only the session token's pass deadline is exact (DESIGN.md §5i).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "net/scheduler.h"
#include "net/timer_queue.h"

struct epoll_event;

namespace raincore::net {

class RealTimeLoop final : public Scheduler {
 public:
  using FdFn = std::function<void(std::uint32_t epoll_events)>;

  RealTimeLoop();
  ~RealTimeLoop() override;
  RealTimeLoop(const RealTimeLoop&) = delete;
  RealTimeLoop& operator=(const RealTimeLoop&) = delete;

  // Scheduler interface (loop thread).
  Time now() const override { return clock_.now(); }
  TimerId schedule_at(Time when, EventFn fn) override;
  TimerId schedule_exact_at(Time when, EventFn fn) override;
  void cancel(TimerId id) override { timers_.cancel(id); }
  std::size_t pending() const override { return timers_.pending(); }

  /// Thread-safe: enqueues fn to run on the loop thread and wakes a
  /// blocked epoll_wait via the eventfd. Callable before run() (drained on
  /// the first iteration) and after stop() (drained by the next run).
  void post(EventFn fn);

  /// Registers a non-blocking fd for edge-triggered EPOLLIN (plus
  /// EPOLLERR/EPOLLHUP, always reported). The handler runs on the loop
  /// thread and must read until EAGAIN. Re-watching an fd replaces its
  /// handler.
  void watch_fd(int fd, FdFn on_ready);
  void unwatch_fd(int fd);

  /// Thread-safe: wakes a blocked epoll_wait without enqueuing anything.
  /// Producers pushing into lock-free queues drained by the service
  /// handler use this instead of post() — no allocation, no mutex.
  void notify() { wake(); }

  /// Installs a handler run once per loop iteration (loop thread), before
  /// timers fire. The runtime drains its SPSC inboxes here; it must be
  /// cheap when there is nothing to do.
  void set_service_handler(EventFn fn) { service_ = std::move(fn); }

  /// Runs until stop(). Returns after the stop flag is observed; pending
  /// posted closures are drained on the final iteration.
  void run();

  /// Runs for a wall-clock duration, then returns (test harness entry).
  void run_for(Time d);

  /// Thread-safe: requests run()/run_for() to return.
  void stop();

  /// True between run() entry and exit (approximate, for assertions).
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Thread-safe: returns from the epoll wait so far, one per loop
  /// iteration (the CPU side of the wake policy above).
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  /// One poll-dispatch cycle. `deadline` bounds the epoll timeout (-1 =
  /// none). Returns false when the stop flag was observed.
  bool iterate(Time deadline);
  /// Blocks for `timeout_ms` (-1 = forever), or for exactly `exact_ns`
  /// when that is >= 0. Returns the number of ready events.
  int wait(epoll_event* events, int timeout_ms, Time exact_ns);
  /// Fires every timer due at one reading of the clock.
  void fire_due();
  void drain_posted();
  void wake();

  RealClock clock_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  TimerQueue timers_;
  std::unordered_map<int, FdFn> fd_handlers_;

  std::mutex post_mu_;
  std::vector<EventFn> posted_;
  EventFn service_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> wakeups_{0};
  /// Cleared for good when the kernel (before 5.11) or a seccomp filter
  /// refuses epoll_pwait2; exact timers then wait like ordinary ones.
  bool exact_waits_ = true;
};

}  // namespace raincore::net
