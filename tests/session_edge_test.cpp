// Session Service edge cases: flow control, large payloads, dynamic
// eligibility, ordering across classes, restart incarnations, and config
// corner cases.
#include <gtest/gtest.h>

#include "tests/util/test_cluster.h"

namespace raincore {
namespace {

using session::Ordering;
using testing::TestCluster;

TEST(SessionEdge, FlowControlDrainsLargeBacklog) {
  session::SessionConfig cfg;
  cfg.max_batch_msgs = 10;
  cfg.token_hold = millis(2);
  TestCluster c({1, 2, 3}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  for (int i = 0; i < 500; ++i) c.send(1, "m" + std::to_string(i));
  EXPECT_EQ(c.node(1).pending_out(), 500u);
  c.run(seconds(10));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 500u) << "node " << id;
  }
  EXPECT_EQ(c.node(1).pending_out(), 0u);
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(SessionEdge, LargePayloadMulticast) {
  TestCluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  std::string big(100 * 1024, 'x');
  c.send(2, big);
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload.size(), big.size());
  }
}

TEST(SessionEdge, DisjointEligibleSetsNeverMerge) {
  net::SimNetConfig ncfg;
  session::SessionConfig cfg;  // eligible configured per node below
  net::SimNetwork net(ncfg);
  session::SessionConfig cfg_a = cfg, cfg_b = cfg;
  cfg_a.eligible = {1, 2};
  cfg_b.eligible = {3, 4};
  session::SessionMux x1(net.add_node(1)), x2(net.add_node(2));
  session::SessionMux x3(net.add_node(3)), x4(net.add_node(4));
  session::SessionNode &n1 = x1.create_ring(0, cfg_a),
                       &n2 = x2.create_ring(0, cfg_a);
  session::SessionNode &n3 = x3.create_ring(0, cfg_b),
                       &n4 = x4.create_ring(0, cfg_b);
  n1.found();
  n2.found();
  n3.found();
  n4.found();
  net.loop().run_for(seconds(10));
  EXPECT_EQ(n1.view().members.size(), 2u);
  EXPECT_EQ(n3.view().members.size(), 2u);
  EXPECT_FALSE(n1.view().has(3));
  EXPECT_FALSE(n3.view().has(1));
}

TEST(SessionEdge, SetEligibleOnlineEnablesMerge) {
  net::SimNetwork net;
  session::SessionConfig cfg_a, cfg_b;
  cfg_a.eligible = {1};
  cfg_b.eligible = {2};
  session::SessionMux x1(net.add_node(1)), x2(net.add_node(2));
  session::SessionNode &n1 = x1.create_ring(0, cfg_a),
                       &n2 = x2.create_ring(0, cfg_b);
  n1.found();
  n2.found();
  net.loop().run_for(seconds(3));
  EXPECT_EQ(n1.view().members.size(), 1u);
  // Online reconfiguration (§2.4: "the configuration can be changed and
  // updated online").
  n1.set_eligible({1, 2});
  n2.set_eligible({1, 2});
  net.loop().run_for(seconds(5));
  EXPECT_EQ(n1.view().members.size(), 2u);
  EXPECT_EQ(n2.view().members.size(), 2u);
}

// Crossing merge invitations (DESIGN.md §5b #14). Node 3 hears node 1's
// advert, then node 2's, and queues both; it invites node 1 first and is
// merged into {1,3}, whose group ID is 1, before it reaches node 2's entry.
// Meanwhile node 2 invites node 1 over a slow link. Sending node 3's queued
// invitation now would park {1,3}'s token at node 2 while node 2's token is
// parked at node 1: a cycle that only hungry_timeout plus three 911 rounds
// (the §5b #5 escape) broke.
TEST(SessionEdge, StaleMergeInvitationIsDroppedSoCrossingMergesConverge) {
  session::SessionConfig cfg;
  TestCluster c({1, 2, 3}, cfg);
  c.net().set_latency(2, 3, millis(1), 0, /*bidirectional=*/false);
  c.net().set_latency(2, 1, millis(20), 0, /*bidirectional=*/false);
  c.found_all();
  EXPECT_TRUE(c.run_until_converged({1, 2, 3}, cfg.bodyodor_interval));
  // Long enough for a parked cycle to reach the escape (hungry_timeout +
  // three starving rounds): nobody may have starved on the way.
  c.run(cfg.hungry_timeout + 4 * session::kStarvingRetry);
  EXPECT_TRUE(c.converged({1, 2, 3}));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).stats().starvations.value(), 0u) << "node " << id;
  }
}

// The group ID a queued invitation is checked against is the one the
// sender's newest advert reported. Node 4 queues node 2's advert, then
// node 3's (group 3), invites node 2 and is merged into {2,4}: node 3's
// entry is now stale. But node 3 has meanwhile joined {1,3} and advertises
// group 1 again before node 4 reaches the entry, so the invitation is
// still due — and sent, instead of waiting a bodyodor_interval for the
// next round of adverts.
TEST(SessionEdge, ReadvertisedLowerGroupIdRefreshesQueuedInvitation) {
  session::SessionConfig cfg;
  TestCluster c({1, 2, 3, 4}, cfg);
  // Two pairs merge first: {1,3} and {2,4}. Only node 3 advertises to node
  // 4 across the pairs.
  c.node(1).set_eligible({1, 3});
  c.node(2).set_eligible({2, 4});
  c.node(3).set_eligible({1, 3, 4});
  c.node(4).set_eligible({2, 3, 4});
  c.net().set_latency(2, 4, millis(8), 0, /*bidirectional=*/false);
  c.net().set_latency(3, 4, millis(9), 0, /*bidirectional=*/false);
  c.found_all();
  for (Time t = 0; c.node(3).view().group_id != 1 && t < cfg.bodyodor_interval;
       t += millis(1)) {
    c.run(millis(1));
  }
  ASSERT_EQ(c.node(3).view().group_id, 1u);
  ASSERT_FALSE(c.converged({2, 4}));  // node 4 has not reached the entry
  // Node 3's next advert, sent at this instant: it reports group 1.
  c.mux(3).transport().send_unreliable_on(
      0, 4, session::encode_bodyodor({3, c.node(3).view().group_id}));
  EXPECT_TRUE(c.run_until_converged({1, 2, 3, 4}, cfg.bodyodor_interval));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).stats().starvations.value(), 0u) << "node " << id;
  }
}

// A merge whose foreign token already lists one of our members leaves that
// member at its foreign position, so our batches in flight must stretch
// their rounds to reach it (DESIGN.md §5b #17; chaos seed 12 of the CI
// sweep). Ring 1→3→2: node 2's batch is due at 1, then 3. Node 1 merges a
// parked TBM token of ring [3,1]: the merged ring runs 1→2→3, and the old
// hop budget retired the batch at node 2 before node 3 delivered it.
TEST(SessionEdge, MergeStretchesRoundsToDisplacedMembers) {
  TestCluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  ASSERT_EQ(c.node(1).view().members, (std::vector<NodeId>{1, 3, 2}));
  for (int i = 0; i < 1000 && !c.node(2).holds_token(); ++i) {
    c.run(micros(100));
  }
  ASSERT_TRUE(c.node(2).holds_token());
  c.send(2, "in-flight");  // attached when node 2 passes the token to node 1
  session::Token foreign;
  foreign.lineage = 0x5eed;
  foreign.seq = 1;
  foreign.view_id = 1;
  foreign.ring = {3, 1};
  foreign.tbm = true;
  foreign.merge_target = 1;
  c.mux(3).transport().send(1, session::encode_token_msg(foreign));
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "in-flight") << "node " << id;
  }
}

TEST(SessionEdge, AgreedAndSafeInterleaveConsistently) {
  TestCluster c({1, 2, 3, 4});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  for (int i = 0; i < 10; ++i) {
    c.send(1 + (i % 4), "a" + std::to_string(i), Ordering::kAgreed);
    c.send(1 + ((i + 1) % 4), "s" + std::to_string(i), Ordering::kSafe);
    c.run(millis(7));
  }
  c.run(seconds(3));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.delivered(id).size(), 20u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(SessionEdge, RestartedOriginsMessagesAreDeliveredDespiteOldWatermarks) {
  TestCluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  // Node 3 multicasts, crashes, restarts, multicasts again from seq 1.
  c.send(3, "before-crash");
  c.run(seconds(1));
  c.net().set_node_up(3, false);
  c.node(3).stop();
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(5)));
  c.net().set_node_up(3, true);
  c.node(3).join({1});
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  c.send(3, "after-restart");
  c.run(seconds(1));
  // The fresh incarnation resets receiver watermarks: the new message is
  // delivered even though its per-origin seq restarted from 1.
  for (NodeId id : {1u, 2u}) {
    EXPECT_EQ(c.delivered(id).back().payload, "after-restart") << "node " << id;
  }
}

TEST(SessionEdge, ZeroHoldIntervalIsClamped) {
  session::SessionConfig cfg;
  cfg.token_hold = 0;
  TestCluster c({1}, cfg);
  c.node(1).found();
  c.run(millis(100));  // must terminate: virtual time must advance
  EXPECT_GT(c.node(1).last_copy().seq, 10u);
}

TEST(SessionEdge, LeaveWhileHungryCompletesAtNextToken) {
  TestCluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  // Call leave() at an arbitrary moment (node may be HUNGRY).
  c.node(2).leave();
  ASSERT_TRUE(c.run_until_converged({1, 3}, seconds(5)));
  EXPECT_FALSE(c.node(2).started());
}

TEST(SessionEdge, CancelLeaveKeepsMembership) {
  TestCluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  // leave() then immediately cancel before the next EATING state.
  if (!c.node(2).holds_token()) {
    c.node(2).leave();
    c.node(2).cancel_leave();
    c.run(seconds(2));
    EXPECT_TRUE(c.node(2).started());
    EXPECT_TRUE(c.converged({1, 2, 3}));
  }
}

TEST(SessionEdge, PendingMessagesAttachedBeforeGracefulLeave) {
  TestCluster c({1, 2});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(10)));
  c.send(2, "farewell");
  c.node(2).leave();
  c.run(seconds(2));
  // The farewell message is attached during the final EATING cycle before
  // the node removes itself.
  ASSERT_FALSE(c.delivered(1).empty());
  EXPECT_EQ(c.delivered(1).back().payload, "farewell");
}

TEST(SessionEdge, RoundtripStatisticsAreReasonable) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(10);
  TestCluster c({1, 2, 3, 4}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  c.node(1).stats().roundtrip.reset();
  c.run(seconds(2));
  const auto& rt = c.node(1).stats().roundtrip;
  ASSERT_GT(rt.count(), 10u);
  // Roundtrip ≈ N * (hold + latency) = 4 * ~10.1 ms.
  EXPECT_NEAR(rt.mean() / 1e6, 40.4, 5.0);
}

TEST(SessionEdge, StaleTokenCounterTracksDuplicates) {
  TestCluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  // Inject a duplicate of the current last copy directly via transport.
  auto stale = c.node(1).last_copy();
  c.mux(2).transport().send(1, session::encode_token_msg(stale));
  c.run(millis(200));
  EXPECT_GE(c.node(1).stats().stale_tokens_dropped.value(), 1u);
}

TEST(SessionEdge, GroupIdTracksLowestMember) {
  TestCluster c({3, 5, 9});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({3, 5, 9}, seconds(10)));
  EXPECT_EQ(c.node(5).view().group_id, 3u);
  c.net().set_node_up(3, false);
  c.node(3).stop();
  ASSERT_TRUE(c.run_until_converged({5, 9}, seconds(5)));
  EXPECT_EQ(c.node(9).view().group_id, 5u);
}

}  // namespace
}  // namespace raincore
