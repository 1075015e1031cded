// Common scheduling interface shared by the virtual-time simulator loop
// (net/event_loop.h) and the epoll-backed production loop
// (net/real_time_loop.h). Both keep their timers in one net::TimerQueue
// (net/timer_queue.h) and differ only in how they wait for the next one.
//
// Protocol code — transports, session rings, data services — schedules
// timers and reads the clock exclusively through this interface, so the
// same passive state machines run bit-identically under the deterministic
// simulator and in real time on a production thread. The contract both
// implementations honour:
//
//   * schedule_at() clamps past instants to now(); same-instant events run
//     in schedule order (FIFO by submission sequence).
//   * cancel() on an id that already fired, was cancelled, or never existed
//     is a harmless no-op — stale ids must not poison accounting.
//   * Handlers may schedule and cancel freely, including a zero-delay
//     timer from inside a handler; it runs after every event already due
//     and before any later deadline (the real-time loop fires each drain
//     at one reading of its clock, so it runs on the next drain).
//   * schedule_exact_at() obeys the same rules; it only asks the loop to
//     wake on time for the deadline. The virtual-time loop has no wake to
//     round, so for it the two calls are the same.
//
// Threading: schedule/cancel are owner-thread operations on both loops.
// Cross-thread submission goes through RealTimeLoop::post(), never through
// the Scheduler interface.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"

namespace raincore::net {

using TimerId = std::uint64_t;
using EventFn = std::function<void()>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual Time now() const = 0;

  /// Schedules fn at an absolute instant (clamped to now()). Returns an id
  /// usable with cancel().
  virtual TimerId schedule_at(Time when, EventFn fn) = 0;

  /// Schedules fn to run at now() + delay (delay may be 0).
  TimerId schedule(Time delay, EventFn fn) {
    return schedule_at(now() + delay, std::move(fn));
  }

  /// schedule_at() for a deadline that must be met to the microsecond,
  /// not to the loop's wake granularity. Reserved for the session token's
  /// pass deadline: every exact timer costs the real-time loop a wake of
  /// its own.
  virtual TimerId schedule_exact_at(Time when, EventFn fn) = 0;

  TimerId schedule_exact(Time delay, EventFn fn) {
    return schedule_exact_at(now() + delay, std::move(fn));
  }

  /// Cancels a pending event; no-op for stale/unknown ids.
  virtual void cancel(TimerId id) = 0;

  /// Timers scheduled and not yet fired or cancelled.
  virtual std::size_t pending() const = 0;
};

}  // namespace raincore::net
