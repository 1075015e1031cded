// Virtual-time event loop driving the simulated network.
//
// All protocol activity in a simulation — datagram deliveries, protocol
// timers, workload arrivals — is an event on this single queue. Events at
// the same instant run in scheduling order, making every run bit-for-bit
// reproducible from its seed.
//
// Implements net::Scheduler, the interface protocol code sees; the
// epoll-backed RealTimeLoop is the production implementation of the same
// contract.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "net/scheduler.h"

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
  void cancel(TimerId id) override {
    if (live_.erase(id) > 0) cancelled_.insert(id);
  }

  /// Runs events until the queue is empty or the virtual clock would pass
  /// `deadline`. The clock is left at min(deadline, last event time).
  void run_until(Time deadline);

  /// Convenience: run_until(now() + d).
  void run_for(Time d) { run_until(now() + d); }

  /// Runs a single event if one is pending; returns false when idle.
  bool step();

  bool idle() const;
  std::size_t pending() const override { return live_.size(); }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;  // tie-break: FIFO among same-instant events
    TimerId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  ManualClock clock_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<TimerId> live_;  // scheduled, not yet run or cancelled
  std::unordered_set<TimerId> cancelled_;
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
};

}  // namespace raincore::net
