#include "net/event_loop.h"

#include <algorithm>
#include <limits>

namespace raincore::net {

TimerId EventLoop::schedule_at(Time when, EventFn fn) {
  return timers_.push(std::max(when, now()), std::move(fn));
}

bool EventLoop::run_next(Time limit) {
  auto ev = timers_.pop_due(limit);
  if (!ev) return false;
  clock_.advance_to(ev->when);
  ev->fn();
  return true;
}

bool EventLoop::step() { return run_next(std::numeric_limits<Time>::max()); }

void EventLoop::run_until(Time deadline) {
  while (run_next(deadline)) {
  }
  clock_.advance_to(deadline);
}

}  // namespace raincore::net
