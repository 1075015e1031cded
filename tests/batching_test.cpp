// Token-hop batching and bounded flow control (session/token.h
// AttachedBatch, session_node.h batching knobs): batch formation,
// try_multicast backpressure, queued messages vs token loss, and the
// seeded chaos + determinism sweep with batching enabled
// (ctest -L batching).
#include <gtest/gtest.h>

#include "testing/chaos.h"
#include "testing/cluster.h"

namespace raincore {
namespace {

using session::Ordering;
using testing::ChaosProfile;
using testing::ChaosRoundResult;
using testing::run_multi_ring_round;
using testing::Cluster;

double counter_of(const session::SessionNode& n, const std::string& name) {
  const metrics::Snapshot snap = n.metrics().snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

// --- Batch formation ---------------------------------------------------------

TEST(BatchFormation, VisitCoalescesBacklogIntoBatchFrames) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_batch_msgs = 64;
  Cluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  // Enqueue a burst while node 1 does not hold the token: the next visit
  // must drain it as a handful of batch frames, not 40 singletons.
  for (int i = 0; i < 40; ++i) c.send(1, "b" + std::to_string(i));
  c.run(seconds(2));

  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 40u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
  const double batches = counter_of(c.node(1), "session.batch.attached");
  const double msgs = counter_of(c.node(1), "session.batch.msgs");
  EXPECT_EQ(msgs, 40.0);
  EXPECT_GE(batches, 1.0);
  EXPECT_LT(batches, 40.0) << "burst should coalesce, not ship singletons";
}

TEST(BatchFormation, ClassFlipClosesTheFrame) {
  // agreed,agreed,safe,agreed in one backlog: the safe message cannot share
  // a frame with its agreed neighbours, and delivery order (at every node)
  // is still exactly enqueue order.
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  Cluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  c.send(1, "a0", Ordering::kAgreed);
  c.send(1, "a1", Ordering::kAgreed);
  c.send(1, "s0", Ordering::kSafe);
  c.send(1, "a2", Ordering::kAgreed);
  c.run(seconds(3));

  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 4u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "a0");
    EXPECT_EQ(c.delivered(id)[1].payload, "a1");
    EXPECT_EQ(c.delivered(id)[2].payload, "s0");
    EXPECT_EQ(c.delivered(id)[3].payload, "a2");
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
  // One visit saw the whole backlog; the class flips force ≥ 3 frames.
  EXPECT_GE(counter_of(c.node(1), "session.batch.attached"), 3.0);
}

TEST(BatchFormation, OversizedMessageShipsAlone) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_batch_bytes = 64;  // far below the payload below
  Cluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  c.send(1, std::string(4096, 'x'));
  c.send(1, "tail");
  c.run(seconds(3));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 2u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload.size(), 4096u);
    EXPECT_EQ(c.delivered(id)[1].payload, "tail");
  }
}

TEST(BatchFormation, LeavingNodeFlushesItsQueue) {
  // A message queued just before leave() rides the leaving visit: the
  // node attaches its queue before it removes itself from the ring.
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  Cluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  c.send(2, "parting");
  c.node(2).leave();
  c.run(seconds(3));
  for (NodeId id : {1, 3}) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "parting");
  }
}

// --- Pass-time attach ----------------------------------------------------------

/// Steps the simulation in 20 µs slices until `pred` holds (or `limit`).
template <typename Pred>
bool step_until(Cluster& c, Pred pred, Time limit = seconds(2)) {
  const Time deadline = c.net().now() + limit;
  while (!pred()) {
    if (c.net().now() >= deadline) return false;
    c.run(micros(20));
  }
  return true;
}

TEST(PassTimeAttach, MessageSentDuringTheHoldLeavesOnThatPass) {
  // A visit attaches twice: at token arrival and again at the pass. A
  // message multicast while its origin holds the token therefore rides
  // the very token it was sitting next to, and every member has it within
  // one rotation — it used to wait for the origin's next arrival.
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  Cluster c({1, 2, 3, 4}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged(c.ids(), seconds(10)));
  c.run(millis(100));

  session::SessionNode& origin = c.node(1);
  ASSERT_TRUE(step_until(c, [&] { return !origin.holds_token(); }));
  ASSERT_TRUE(step_until(c, [&] { return origin.holds_token(); }));
  const Time arrived = c.net().now();
  c.send(1, "during-hold");

  // Not before the pass: the arrival-time attach has already run.
  c.run(millis(1));
  EXPECT_TRUE(c.delivered(1).empty());
  ASSERT_TRUE(step_until(c, [&] { return !origin.holds_token(); }));
  ASSERT_EQ(c.delivered(1).size(), 1u) << "origin delivers at its pass";

  // One rotation is 4 x (2 ms hold + 0.1 ms hop) = 8.4 ms after arrival;
  // the last member has the message a hold before the token returns.
  const Time rotation = 4 * (millis(2) + micros(100));
  c.run(arrived + rotation - micros(50) - c.net().now());
  EXPECT_FALSE(origin.holds_token());
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "during-hold");
  }
}

TEST(PassTimeAttach, BothAttachPointsShareOneVisitBudget) {
  // What one visit adds — arrival-time and pass-time attach together —
  // stays within max_batch_msgs and max_batch_bytes (raincored sizes its
  // datagram budget on that bound). Measured on the token as passed: the
  // origin's batches there with hops == 1 are exactly this visit's.
  struct Caps {
    std::size_t max_msgs;
    std::size_t max_bytes;
    std::size_t msg_bytes;
    std::size_t per_visit;  ///< messages one full visit may add
  };
  for (const Caps caps : {Caps{8, 1 << 20, 10, 8}, Caps{128, 200, 40, 5}}) {
    SCOPED_TRACE("max_msgs=" + std::to_string(caps.max_msgs) +
                 " max_bytes=" + std::to_string(caps.max_bytes));
    session::SessionConfig cfg;
    cfg.token_hold = millis(2);
    cfg.max_batch_msgs = caps.max_msgs;
    cfg.max_batch_bytes = caps.max_bytes;
    Cluster c({1, 2, 3, 4}, cfg);
    c.bootstrap_via_join();
    ASSERT_TRUE(c.run_until_converged(c.ids(), seconds(10)));
    c.run(millis(100));

    session::SessionNode& origin = c.node(1);
    // Checks what the visit that just passed added against both caps and
    // returns its message count.
    auto check_visit = [&] {
      std::size_t msgs = 0, bytes = 0;
      for (const session::AttachedBatch& b : origin.last_copy().batches) {
        if (b.origin != 1 || b.hops != 1) continue;
        msgs += b.count;
        bytes += b.payload.size() - 4 * b.count;  // minus length prefixes
      }
      EXPECT_LE(msgs, caps.max_msgs);
      EXPECT_LE(bytes, caps.max_bytes);
      return msgs;
    };
    int sent = 0;
    auto send = [&] {
      c.send(1, std::string(caps.msg_bytes - 3, 'm') +
                    std::to_string(100 + sent++));
    };

    // Below-budget backlog attaches at arrival; a burst queued during the
    // hold tops the visit up to the budget at the pass, no further.
    ASSERT_TRUE(step_until(c, [&] { return !origin.holds_token(); }));
    const std::size_t backlog = caps.per_visit - 2;
    for (std::size_t i = 0; i < backlog; ++i) send();
    ASSERT_TRUE(step_until(c, [&] { return origin.holds_token(); }));
    for (int i = 0; i < 10; ++i) send();
    ASSERT_TRUE(step_until(c, [&] { return !origin.holds_token(); }));
    EXPECT_EQ(check_visit(), caps.per_visit)
        << "the pass must use the rest of the visit's budget";

    // The remaining backlog drains over later visits, each within budget.
    while (origin.pending_out() > 0) {
      ASSERT_TRUE(step_until(c, [&] { return origin.holds_token(); }));
      ASSERT_TRUE(step_until(c, [&] { return !origin.holds_token(); }));
      check_visit();
    }
    c.run(seconds(1));
    for (NodeId id : c.ids()) {
      ASSERT_EQ(c.delivered(id).size(), static_cast<std::size_t>(sent))
          << "node " << id;
    }
    EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
  }
}

// --- Bounded queue / backpressure --------------------------------------------

TEST(Backpressure, TryMulticastRefusesWhenMsgBoundHit) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_queue_msgs = 4;
  Cluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  // Without running the loop the queue cannot drain: exactly the first 4
  // are admitted, the rest refuse without consuming sequence numbers.
  session::SessionNode& n = c.node(1);
  int accepted = 0, refused = 0;
  std::optional<MsgSeq> last;
  for (int i = 0; i < 10; ++i) {
    std::string s = "q" + std::to_string(i);
    auto seq = n.try_multicast(Bytes(s.begin(), s.end()));
    if (seq) {
      if (last) {
        EXPECT_EQ(*seq, *last + 1) << "refusals must not burn seqs";
      }
      last = seq;
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(refused, 6);
  EXPECT_EQ(n.pending_out(), 4u);
  EXPECT_EQ(counter_of(n, "session.backpressure_stalls"), 6.0);

  // The admitted messages flow normally once the ring runs.
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 4u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(Backpressure, TryMulticastRefusesWhenByteBoundHit) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  // Tenths of the 8 MiB byte bound; no token visit drains in between.
  const std::size_t tenth = session::kMaxQueueBytes / 10;
  session::SessionNode& n = c.node(1);
  EXPECT_TRUE(n.try_multicast(Bytes(6 * tenth, 'a')).has_value());
  EXPECT_FALSE(n.try_multicast(Bytes(6 * tenth, 'b')).has_value())
      << "six tenths twice exceeds the byte bound";
  EXPECT_TRUE(n.try_multicast(Bytes(tenth, 'c')).has_value());
  EXPECT_EQ(n.pending_out_bytes(), 7 * tenth);
}

TEST(Backpressure, OversizedMessageAdmittedIntoEmptyQueue) {
  // A lone message larger than the byte bound must not wedge forever: the
  // bound only refuses when the queue is non-empty.
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  EXPECT_TRUE(c.node(1)
                  .try_multicast(Bytes(session::kMaxQueueBytes + 1, 'x'))
                  .has_value());
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
  }
}

TEST(Backpressure, ForceMulticastBypassesBound) {
  // Protocol-internal senders (open-submit forwarding, re-proposals) must
  // never drop: plain multicast() keeps force-enqueue semantics.
  session::SessionConfig cfg;
  cfg.max_queue_msgs = 2;
  Cluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  for (int i = 0; i < 6; ++i) c.send(1, "f" + std::to_string(i));
  EXPECT_EQ(c.node(1).pending_out(), 6u);
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 6u) << "node " << id;
  }
}

// --- Queued messages vs token loss ------------------------------------------

TEST(BatchingRaces, QueuedMessagesSurviveTokenHolderCrash) {
  // The race: a sender has a backlog queued when the token dies with its
  // current holder. Queued messages sit in the sender's local pending_out_
  // queue — they are NOT on the lost token — so 911 regeneration must
  // neither lose nor duplicate them; they attach after recovery and
  // deliver exactly once, in enqueue order.
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.hungry_timeout = millis(400);
  cfg.max_batch_msgs = 64;
  Cluster c({1, 2, 3, 4}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));

  // Find a moment where some node other than 1 holds the token.
  NodeId victim = 0;
  for (int i = 0; i < 1000 && victim == 0; ++i) {
    c.run(millis(1));
    for (NodeId id : {2, 3, 4}) {
      if (c.node(id).holds_token()) {
        victim = id;
        break;
      }
    }
  }
  ASSERT_NE(victim, 0u) << "no non-sender token holder observed";

  // Enqueue the backlog at node 1, then immediately kill the holder: the
  // messages are still queued when the token dies.
  for (int i = 0; i < 5; ++i) c.send(1, "race" + std::to_string(i));
  c.net().set_node_up(victim, false);
  c.node(victim).stop();

  std::vector<NodeId> survivors;
  for (NodeId id : c.ids()) {
    if (id != victim) survivors.push_back(id);
  }
  ASSERT_TRUE(c.run_until_converged(survivors, seconds(30)));
  c.run(seconds(2));

  for (NodeId id : survivors) {
    ASSERT_EQ(c.delivered(id).size(), 5u) << "node " << id;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(c.delivered(id)[static_cast<std::size_t>(i)].payload,
                "race" + std::to_string(i));
    }
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

// --- Chaos sweep + determinism with batching enabled -------------------------

ChaosProfile batching_profile() {
  ChaosProfile p;
  p.max_batch_msgs = 16;
  p.max_batch_bytes = 2048;
  return p;
}

class BatchingChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchingChaosSweep, MultiRingRoundHasNoViolations) {
  // The full 13-fault-class schedule over 4 nodes × 3 rings, with batch
  // formation live on every ring. The
  // oracles (total order, exactly-once, membership agreement) must stay
  // clean — batching changed the wire format, not the semantics.
  ChaosRoundResult res = run_multi_ring_round(GetParam(), millis(1500), 4, 3,
                                              batching_profile());
  EXPECT_TRUE(res.violations.empty()) << res.report;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(BatchingDeterminism, SameSeedBitIdenticalWithBatching) {
  ChaosRoundResult a =
      run_multi_ring_round(7, millis(1500), 4, 3, batching_profile());
  ChaosRoundResult b =
      run_multi_ring_round(7, millis(1500), 4, 3, batching_profile());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.violations, b.violations);
  // Counter-for-counter, gauge-for-gauge bit equality across the replay.
  EXPECT_TRUE(a.metrics == b.metrics) << "metrics snapshots diverged";
}

TEST(BatchingDeterminism, ZeroProfileMatchesDefaultKnobs) {
  // A zero-valued profile leaves the session defaults untouched: the same
  // seed must replay bit-identically with and without the profile struct's
  // new fields present — the guard that keeps every pre-batching seeded
  // schedule stable.
  ChaosRoundResult a = run_multi_ring_round(11, millis(1200), 4, 3, {});
  ChaosProfile zeroed;  // all batching fields at their zero defaults
  ChaosRoundResult b = run_multi_ring_round(11, millis(1200), 4, 3, zeroed);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.violations, b.violations);
}

}  // namespace
}  // namespace raincore
