// Hashed timer wheel: the timer store behind the epoll real-time loop.
//
// Timers hash into buckets by deadline tick (deadline / granularity mod
// wheel size), so schedule and cancel are O(1) and an advance touches only
// the buckets whose ticks elapsed. Protocol timers here are few and
// short-lived (token rotation, retransmit, failure detection — tens per
// node, milliseconds apart), which the 1ms × 512-slot default wheel covers
// in one revolution; longer timers simply survive extra bucket sweeps.
//
// Firing semantics replicate the virtual-time EventLoop exactly: due
// timers fire in (deadline, submission seq) order, a handler may cancel a
// timer that is already collected into the same firing batch (it will not
// run), and a handler may schedule a zero-delay timer which fires in the
// same advance pass after everything already due. That parity is what
// lets one test body validate both loops (tests/real_time_loop_test.cpp).
//
// Not thread-safe: the owning loop thread is the only caller.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "net/scheduler.h"

namespace raincore::net {

class TimerWheel {
 public:
  static constexpr Time kDefaultGranularity = kNanosPerMilli;
  static constexpr std::size_t kDefaultSlots = 512;

  explicit TimerWheel(Time granularity = kDefaultGranularity,
                      std::size_t slots = kDefaultSlots);
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Registers fn to fire once advance() reaches `when` (absolute). An
  /// `exact` timer fires in the same order as any other; it only shows up
  /// in next_deadlines().exact, for a loop that wakes on time for it.
  TimerId schedule_at(Time when, EventFn fn, bool exact = false);

  /// Lazily removes a pending timer (the entry is dropped when its bucket
  /// is next swept, or skipped if already collected into a firing batch).
  /// Returns false for stale/unknown ids.
  bool cancel(TimerId id);

  /// Fires every timer with deadline <= now, in (deadline, seq) order,
  /// including timers handlers schedule for instants <= now. Returns the
  /// number fired.
  std::size_t advance(Time now);

  /// Earliest pending deadline of any timer and of exact timers alone, -1
  /// when there is none (they feed the loop's wait).
  struct Deadlines {
    Time any = -1;
    Time exact = -1;
  };
  Deadlines next_deadlines() const;

  std::size_t pending() const { return live_.size(); }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    TimerId id;
    EventFn fn;
    bool exact;
  };

  std::int64_t tick_of(Time when) const { return when / granularity_; }

  Time granularity_;
  std::size_t mask_;
  std::vector<std::vector<Entry>> buckets_;
  /// Scheduled, not yet fired or cancelled. Cancel only erases here; the
  /// dead Entry is garbage-collected at its next sweep.
  std::unordered_set<TimerId> live_;
  std::int64_t last_tick_ = -1;  // highest tick already swept by advance()
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
  /// While advance() runs, newly due timers (handler schedules with
  /// when <= the instant being advanced to) land here instead of a bucket
  /// behind the sweep cursor, and fire in the same pass.
  std::vector<Entry> overflow_;
  bool firing_ = false;
  Time firing_now_ = 0;
};

}  // namespace raincore::net
