// Bounded lock-free single-producer / single-consumer ring.
//
// The production runtime's cross-thread handoff primitive (DESIGN.md §5i):
// the I/O thread pushes received Slice refs to a worker's inbox, the
// worker pushes commands back — exactly one producer and one consumer per
// queue, by construction. Elements move through the ring (a Slice handoff
// transfers a refcount, never copies payload bytes).
//
// Bounded on purpose: a full queue applies backpressure at the push site
// (the caller decides to drop, as lossy UDP ingest does, or retry, as
// command channels do) instead of growing without bound when a consumer
// stalls.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace raincore {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two; the ring holds capacity
  /// elements (one slot is never wasted: head/tail are free-running).
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false when full (element untouched, caller
  /// keeps ownership).
  bool try_push(T v) {
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= slots_.size()) {
      return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Racy but monotonic enough for metrics/backpressure heuristics.
  std::size_t size_approx() const {
    std::size_t tail = tail_.load(std::memory_order_acquire);
    std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Separate cache lines: the producer writes tail_, the consumer head_;
  // sharing a line would bounce it on every push/pop pair.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace raincore
