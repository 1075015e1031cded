// Real-time loop semantics: the TimerQueue both loops keep their timers in
// (firing order, cancel-while-firing, the exact-deadline index, the
// rebuild bound under cancel churn), scheduling-contract parity between
// the virtual-time EventLoop and the epoll RealTimeLoop (the same test
// body runs against both, for ordinary and exact timers), the wake policy
// (whole-ms wakes for a sub-ms ticker, on-time wakes for exact deadlines),
// the eventfd wakeup path under concurrent cross-thread posts, and the
// SPSC handoff queue.
// ctest -L runtime
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "net/event_loop.h"
#include "net/real_time_loop.h"
#include "net/timer_queue.h"

using namespace raincore;

// --- TimerQueue (driven directly with a synthetic clock) ---------------------

namespace {

// Pops and runs every timer due by `t`, the way both loops drain.
std::size_t drain(net::TimerQueue& q, Time t) {
  std::size_t fired = 0;
  while (auto timer = q.pop_due(t)) {
    timer->fn();
    ++fired;
  }
  return fired;
}

}  // namespace

TEST(TimerQueueTest, FiresInDeadlineThenSubmissionOrder) {
  net::TimerQueue q;
  std::vector<int> order;
  q.push(millis(5), [&] { order.push_back(5); });
  q.push(millis(3), [&] { order.push_back(3); });
  q.push(millis(3), [&] { order.push_back(4); });  // FIFO at 3ms
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.next_deadline(), millis(3));
  EXPECT_EQ(drain(q, millis(10)), 3u);
  EXPECT_EQ(order, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.next_deadline(), -1);
}

TEST(TimerQueueTest, ReportsEarliestExactDeadlineSeparately) {
  net::TimerQueue q;
  q.push(millis(2), [] {});
  const net::TimerId early = q.push(millis(4), [] {}, /*exact=*/true);
  q.push(millis(7), [] {}, /*exact=*/true);
  EXPECT_EQ(q.next_deadline(), millis(2));
  EXPECT_EQ(q.next_exact_deadline(), millis(4));
  q.cancel(early);
  EXPECT_EQ(q.next_exact_deadline(), millis(7));
  EXPECT_EQ(drain(q, millis(10)), 2u);
  EXPECT_EQ(q.next_exact_deadline(), -1);
}

TEST(TimerQueueTest, CancelWhileFiring) {
  net::TimerQueue q;
  std::vector<int> order;
  net::TimerId victim = 0;
  // Both timers are due in one drain; the first handler cancels the
  // second, which must then not run.
  q.push(millis(1), [&] {
    order.push_back(1);
    EXPECT_TRUE(q.cancel(victim));
  });
  victim = q.push(millis(1), [&] { order.push_back(99); });
  EXPECT_EQ(drain(q, millis(2)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.pending(), 0u);
  // The id is stale now.
  EXPECT_FALSE(q.cancel(victim));
}

TEST(TimerQueueTest, ZeroDelayFromHandlerFiresInSamePass) {
  net::TimerQueue q;
  std::vector<int> order;
  q.push(millis(1), [&] {
    order.push_back(1);
    q.push(millis(1), [&] { order.push_back(2); });
  });
  // One drain runs both: the nested timer is already due.
  EXPECT_EQ(drain(q, millis(2)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerQueueTest, FarFutureTimerFiresOnlyAtItsDeadline) {
  net::TimerQueue q;
  const Time far = seconds(600);  // ten minutes
  int fired = 0;
  q.push(far, [&] { ++fired; });
  q.push(millis(2), [] {});
  EXPECT_EQ(drain(q, millis(5)), 1u);
  EXPECT_EQ(q.next_deadline(), far);
  EXPECT_EQ(drain(q, far - 1), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(drain(q, far), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, CancellingTheEarliestKeepsTheNextLiveDeadline) {
  net::TimerQueue q;
  const net::TimerId first = q.push(millis(1), [] {});
  const net::TimerId second = q.push(millis(2), [] {});
  q.push(millis(3), [] {});
  // Cancel behind the top first, then the top: both tombstones must be
  // skipped, not reported as the next deadline or popped.
  EXPECT_TRUE(q.cancel(second));
  EXPECT_EQ(q.next_deadline(), millis(1));
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.next_deadline(), millis(3));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(drain(q, millis(2)), 0u);
  EXPECT_EQ(drain(q, millis(3)), 1u);
  EXPECT_EQ(q.next_deadline(), -1);
}

TEST(TimerQueueTest, CancelChurnStaysWithinTheRebuildBound) {
  // A timer re-armed minutes ahead and cancelled each time (how a
  // retransmit or failure timeout behaves while traffic flows). Behind a
  // live earlier timer, every cancel leaves a tombstone that would wait
  // for its deadline; the rebuild keeps the heap proportional to the live
  // timers.
  net::TimerQueue q;
  int fired = 0;
  q.push(millis(1), [&] { ++fired; });
  q.push(seconds(100), [&] { ++fired; }, /*exact=*/true);
  for (int i = 0; i < 10000; ++i) {
    const net::TimerId id =
        q.push(seconds(300) + i, [&] { fired += 1000; }, /*exact=*/i % 2 == 0);
    ASSERT_TRUE(q.cancel(id));
    ASSERT_EQ(q.pending(), 2u);
    ASSERT_LE(q.stored(), 2 * q.pending() + net::TimerQueue::kSlack);
  }
  EXPECT_EQ(q.next_deadline(), millis(1));
  EXPECT_EQ(q.next_exact_deadline(), seconds(100));
  EXPECT_EQ(drain(q, seconds(1000)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.stored(), 0u);
}

// --- Scheduling-contract parity ----------------------------------------------

// The body every Scheduler implementation must satisfy identically, with
// exact and ordinary timers mixed: FIFO among equal deadlines, cancel
// before and during firing honoured, and zero-delay timers scheduled from
// handlers running in the same pass, before any later deadline. Delays are
// widely spaced so the real-time run cannot collapse two deadlines into
// one wake-up even on a loaded machine.
void scheduling_contract_body(net::Scheduler& s,
                              const std::function<void()>& run_all) {
  std::vector<int> order;
  net::TimerId victim = 0;
  net::TimerId exact_victim = 0;
  const Time at = s.now() + millis(10);
  s.schedule(millis(250), [&] { order.push_back(2); });
  s.schedule_exact(millis(100), [&] { order.push_back(3); });
  s.schedule_at(at, [&] {
    order.push_back(1);
    s.schedule(0, [&] { order.push_back(10); });
    s.schedule_exact(0, [&] { order.push_back(11); });
    s.schedule(0, [&] { order.push_back(13); });
    s.cancel(victim);
    s.cancel(exact_victim);
  });
  s.schedule_exact_at(at, [&] { order.push_back(12); });
  victim = s.schedule_at(at, [&] { order.push_back(99); });
  exact_victim = s.schedule_exact_at(at, [&] { order.push_back(98); });
  s.schedule_at(at, [&] { order.push_back(14); });
  s.cancel(s.schedule_exact(millis(5), [&] { order.push_back(97); }));
  run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 12, 14, 10, 11, 13, 3, 2}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerParityTest, VirtualLoopContract) {
  net::EventLoop loop;
  scheduling_contract_body(loop, [&] { loop.run_for(seconds(1)); });
}

TEST(SchedulerParityTest, RealTimeLoopContract) {
  net::RealTimeLoop loop;
  scheduling_contract_body(loop, [&] {
    // Run (on this thread) until the queue drains or far past the last
    // deadline.
    const auto t0 = std::chrono::steady_clock::now();
    while (loop.pending() > 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      loop.run_for(millis(50));
    }
  });
}

// --- Wake policy ----------------------------------------------------------------

// A 160 us ordinary ticker that catches up on every due tick and re-arms
// for the next (how a load generator follows its timeline) beside a chain
// of exact timers 2 ms apart (how the token's pass deadline recurs). The
// exact chain must fire on time, and the ticker must keep its whole-ms
// batching: about one wake per ms, not one per tick (6.25 per ms).
TEST(RealTimeLoopTest, ExactChainFiresOnTimeBesideBatchedTicker) {
  constexpr Time kTick = micros(160);
  constexpr Time kChainGap = millis(2);
  net::RealTimeLoop loop;
  const Time start = loop.now();

  std::int64_t ticks = 0;
  std::function<void()> tick = [&] {
    while (start + (ticks + 1) * kTick <= loop.now()) ++ticks;
    loop.schedule_at(start + (ticks + 1) * kTick, tick);
  };
  loop.schedule_at(start + kTick, tick);

  std::vector<Time> lateness;
  Time due = start + kChainGap;
  std::function<void()> link = [&] {
    lateness.push_back(loop.now() - due);
    due += kChainGap;
    loop.schedule_exact_at(due, link);
  };
  loop.schedule_exact_at(due, link);

  const std::uint64_t wakes_before = loop.wakeups();
  loop.run_for(millis(500));
  const double elapsed_ms = to_millis(loop.now() - start);
  const double wakes_per_ms =
      static_cast<double>(loop.wakeups() - wakes_before) / elapsed_ms;

  ASSERT_GE(lateness.size(), 200u);
  std::nth_element(lateness.begin(), lateness.begin() + lateness.size() / 2,
                   lateness.end());
  const Time median_late = lateness[lateness.size() / 2];
  EXPECT_LT(median_late, micros(250)) << "exact timers fire late";
  EXPECT_LE(wakes_per_ms, 1.5) << "the ticker wakes the loop once per tick";
  EXPECT_GE(ticks, 3000) << "the ticker fell behind its timeline";
}

// --- Cross-thread post / eventfd wakeup --------------------------------------

TEST(RealTimeLoopTest, ConcurrentCrossThreadPosts) {
  net::RealTimeLoop loop;
  std::atomic<int> ran{0};
  std::thread runner([&] { loop.run(); });

  constexpr int kThreads = 4;
  constexpr int kPostsPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) {
        loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& p : producers) p.join();

  const auto t0 = std::chrono::steady_clock::now();
  while (ran.load() < kThreads * kPostsPerThread &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  runner.join();
  EXPECT_EQ(ran.load(), kThreads * kPostsPerThread);
}

TEST(RealTimeLoopTest, NotifyWakesServiceHandler) {
  net::RealTimeLoop loop;
  SpscQueue<int> inbox(64);
  std::atomic<int> sum{0};
  loop.set_service_handler([&] {
    int v;
    while (inbox.try_pop(v)) sum.fetch_add(v, std::memory_order_relaxed);
  });
  std::thread runner([&] { loop.run(); });
  std::thread producer([&] {
    for (int i = 1; i <= 100; ++i) {
      while (!inbox.try_push(int{i})) std::this_thread::yield();
      loop.notify();
    }
  });
  producer.join();
  const auto t0 = std::chrono::steady_clock::now();
  while (sum.load() < 5050 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  runner.join();
  EXPECT_EQ(sum.load(), 5050);
}

// --- SPSC queue ---------------------------------------------------------------

TEST(SpscQueueTest, OrderedSingleThread) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.size_approx(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(5));  // full at its (pow2) capacity
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(SpscQueueTest, TwoThreadStressKeepsEveryItem) {
  SpscQueue<std::uint64_t> q(128);
  constexpr std::uint64_t kItems = 200000;
  std::uint64_t got = 0, expect_next = 0;
  std::thread consumer([&] {
    std::uint64_t v;
    while (got < kItems) {
      if (q.try_pop(v)) {
        ASSERT_EQ(v, expect_next);  // FIFO, nothing lost or duplicated
        ++expect_next;
        ++got;
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!q.try_push(std::uint64_t{i})) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(got, kItems);
}
