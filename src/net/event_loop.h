// Virtual-time event loop driving the simulated network.
//
// All protocol activity in a simulation — datagram deliveries, protocol
// timers, workload arrivals — is an event on this single queue. Events at
// the same instant run in scheduling order, making every run bit-for-bit
// reproducible from its seed.
//
// Implements net::Scheduler, the interface protocol code sees; the
// epoll-backed RealTimeLoop is the production implementation of the same
// contract, over the same TimerQueue.
#pragma once

#include "common/clock.h"
#include "common/types.h"
#include "net/scheduler.h"
#include "net/timer_queue.h"

namespace raincore::net {

class EventLoop final : public Scheduler {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  const Clock& clock() const { return clock_; }
  Time now() const override { return clock_.now(); }

  /// Schedules fn at an absolute instant (clamped to now()).
  TimerId schedule_at(Time when, EventFn fn) override;
  /// Virtual time wakes exactly on every event already.
  TimerId schedule_exact_at(Time when, EventFn fn) override {
    return schedule_at(when, std::move(fn));
  }

  /// Cancels a pending event; no-op if it already ran, was cancelled, or
  /// never existed (stale ids must not poison the pending() accounting).
  void cancel(TimerId id) override { timers_.cancel(id); }

  /// Runs events until the queue is empty or the virtual clock would pass
  /// `deadline`, then advances the clock to `deadline`.
  void run_until(Time deadline);

  /// Convenience: run_until(now() + d).
  void run_for(Time d) { run_until(now() + d); }

  /// Runs a single event if one is pending; returns false when idle.
  bool step();

  bool idle() const { return pending() == 0; }
  std::size_t pending() const override { return timers_.pending(); }

 private:
  /// Runs the earliest event due by `limit`; false when there is none.
  bool run_next(Time limit);

  ManualClock clock_;
  TimerQueue timers_;
};

}  // namespace raincore::net
