#include "net/timer_wheel.h"

#include <algorithm>

namespace raincore::net {

namespace {

// Rounds up to the next power of two so slot_of's mask is valid for any
// requested size.
std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TimerWheel::TimerWheel(Time granularity, std::size_t slots)
    : granularity_(granularity > 0 ? granularity : kDefaultGranularity),
      mask_(pow2_at_least(slots ? slots : kDefaultSlots) - 1),
      buckets_(mask_ + 1) {}

TimerId TimerWheel::schedule_at(Time when, EventFn fn, bool exact) {
  TimerId id = next_id_++;
  Entry e{when, next_seq_++, id, std::move(fn), exact};
  live_.insert(id);
  if (firing_ && when <= firing_now_) {
    // Due already — the sweep cursor has passed this instant's bucket, so
    // queue it for the current pass (EventLoop parity: a zero-delay timer
    // scheduled from a handler runs after everything already due).
    overflow_.push_back(std::move(e));
  } else {
    buckets_[static_cast<std::size_t>(tick_of(when)) & mask_].push_back(
        std::move(e));
  }
  return id;
}

bool TimerWheel::cancel(TimerId id) { return live_.erase(id) > 0; }

std::size_t TimerWheel::advance(Time now) {
  std::int64_t now_tick = tick_of(now);
  std::int64_t start = last_tick_;
  if (start < 0) {
    // First sweep ever: begin at the earliest scheduled tick, not now —
    // arbitrary time may pass between construction and the first advance,
    // and anything scheduled in between must not wait a full revolution.
    start = now_tick;
    for (const auto& bucket : buckets_) {
      for (const Entry& e : bucket) {
        if (live_.count(e.id)) start = std::min(start, tick_of(e.when));
      }
    }
  }
  // Re-sweep the cursor tick (a bucket can hold later-in-tick deadlines);
  // cap at one revolution — beyond that every bucket has been visited.
  std::size_t ticks = static_cast<std::size_t>(now_tick - start) + 1;
  ticks = std::min(ticks, buckets_.size());

  std::vector<Entry> batch;
  for (std::size_t i = 0; i < ticks; ++i) {
    auto& bucket = buckets_[static_cast<std::size_t>(start + static_cast<std::int64_t>(i)) & mask_];
    for (std::size_t j = 0; j < bucket.size();) {
      Entry& e = bucket[j];
      if (!live_.count(e.id)) {  // cancelled: garbage-collect in place
        e = std::move(bucket.back());
        bucket.pop_back();
      } else if (e.when <= now) {
        batch.push_back(std::move(e));
        e = std::move(bucket.back());
        bucket.pop_back();
      } else {
        ++j;
      }
    }
  }
  last_tick_ = now_tick;

  std::size_t fired = 0;
  firing_ = true;
  firing_now_ = now;
  while (!batch.empty()) {
    std::sort(batch.begin(), batch.end(), [](const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    });
    for (Entry& e : batch) {
      // A handler earlier in this batch may have cancelled this timer.
      if (live_.erase(e.id) == 0) continue;
      e.fn();
      ++fired;
    }
    // Handlers may have scheduled timers already due; drain them in the
    // same pass so advance() leaves no due work behind.
    batch = std::move(overflow_);
    overflow_.clear();
  }
  firing_ = false;
  return fired;
}

TimerWheel::Deadlines TimerWheel::next_deadlines() const {
  Deadlines d;
  if (live_.empty()) return d;
  for (const auto& bucket : buckets_) {
    for (const Entry& e : bucket) {
      if (!live_.count(e.id)) continue;
      if (d.any < 0 || e.when < d.any) d.any = e.when;
      if (e.exact && (d.exact < 0 || e.when < d.exact)) d.exact = e.when;
    }
  }
  return d;
}

}  // namespace raincore::net
