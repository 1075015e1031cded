// The timer store behind both schedulers: the virtual-time EventLoop and
// the epoll RealTimeLoop keep their timers here, so the two loops share
// one ordering and one cancel rule as well as one interface.
//
// A binary min-heap ordered by (deadline, id). Ids count from 1 in
// submission order, so the id is the FIFO tie-break among equal deadlines
// and (deadline, id) is a total order: pop order never depends on the
// heap's layout.
//
// Cancel is lazy: it erases the id from the live set, and the dead entry
// is dropped once it reaches the top. The top is therefore always live
// and the next deadline is an O(1) read. A cancelled far-future timer
// would otherwise stay until its deadline, so when dead entries outnumber
// live ones (more than 2 × pending() + kSlack stored) the heap is rebuilt
// from the live entries; (deadline, id) being total, a rebuild cannot
// change what pops next.
//
// Exact timers (Scheduler::schedule_exact_at) sit in the same heap and
// pop in the same order. A second heap of their (deadline, id) pairs,
// cleaned the same way, tells the real-time loop when it must wake on
// time.
//
// Not thread-safe: the owning loop thread is the only caller.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/scheduler.h"

namespace raincore::net {

class TimerQueue {
 public:
  struct Timer {
    Time when;
    TimerId id;
    EventFn fn;
  };

  /// Dead entries tolerated beyond one per live timer before a rebuild.
  static constexpr std::size_t kSlack = 64;

  /// Adds fn at the absolute deadline `when` (the loop clamps it to its
  /// clock first). An exact timer also counts for next_exact_deadline().
  TimerId push(Time when, EventFn fn, bool exact = false);

  /// Returns false for an id that already popped, was cancelled, or never
  /// existed.
  bool cancel(TimerId id);

  /// Removes and returns the earliest live timer due by `t`, if any.
  std::optional<Timer> pop_due(Time t);

  /// Earliest live deadline of any timer, and of exact timers alone; -1
  /// when there is none.
  Time next_deadline() const { return heap_.empty() ? -1 : heap_.front().when; }
  Time next_exact_deadline() const {
    return exact_.empty() ? -1 : exact_.front().first;
  }

  std::size_t pending() const { return live_.size(); }
  /// Entries held, live or cancelled; at most 2 × pending() + kSlack.
  std::size_t stored() const { return heap_.size(); }

 private:
  using ExactKey = std::pair<Time, TimerId>;

  /// Restores "the tops are live": drops cancelled or popped entries from
  /// the top of both heaps, or rebuilds them once dead entries dominate.
  void drop_dead();

  std::vector<Timer> heap_;
  std::vector<ExactKey> exact_;
  /// Pushed, not yet popped or cancelled.
  std::unordered_set<TimerId> live_;
  TimerId next_id_ = 1;
};

}  // namespace raincore::net
