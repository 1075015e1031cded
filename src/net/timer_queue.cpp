#include "net/timer_queue.h"

#include <algorithm>
#include <functional>

namespace raincore::net {

namespace {

// The std heap algorithms keep the greatest element on top; ordering by
// "later" puts the earliest (deadline, id) there.
bool later(const TimerQueue::Timer& a, const TimerQueue::Timer& b) {
  return a.when != b.when ? a.when > b.when : a.id > b.id;
}

}  // namespace

TimerId TimerQueue::push(Time when, EventFn fn, bool exact) {
  const TimerId id = next_id_++;
  heap_.push_back(Timer{when, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
  if (exact) {
    exact_.emplace_back(when, id);
    std::push_heap(exact_.begin(), exact_.end(), std::greater<>{});
  }
  live_.insert(id);
  return id;
}

bool TimerQueue::cancel(TimerId id) {
  if (live_.erase(id) == 0) return false;
  drop_dead();
  return true;
}

std::optional<TimerQueue::Timer> TimerQueue::pop_due(Time t) {
  if (heap_.empty() || heap_.front().when > t) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Timer timer = std::move(heap_.back());
  heap_.pop_back();
  live_.erase(timer.id);
  drop_dead();
  return timer;
}

void TimerQueue::drop_dead() {
  const auto dead = [this](TimerId id) { return live_.count(id) == 0; };
  if (heap_.size() > 2 * live_.size() + kSlack) {
    std::erase_if(heap_, [&](const Timer& t) { return dead(t.id); });
    std::make_heap(heap_.begin(), heap_.end(), later);
    std::erase_if(exact_, [&](const ExactKey& k) { return dead(k.second); });
    std::make_heap(exact_.begin(), exact_.end(), std::greater<>{});
    return;
  }
  while (!heap_.empty() && dead(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  while (!exact_.empty() && dead(exact_.front().second)) {
    std::pop_heap(exact_.begin(), exact_.end(), std::greater<>{});
    exact_.pop_back();
  }
}

}  // namespace raincore::net
