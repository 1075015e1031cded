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
