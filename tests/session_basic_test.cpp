// Session Service basics: group formation, token circulation, membership
// agreement, multicast ordering and the mutual exclusion service.
#include <gtest/gtest.h>

#include "testing/cluster.h"

namespace raincore {
namespace {

using session::Ordering;
using session::SessionNode;
using testing::Cluster;

TEST(SessionBasic, SingletonGroupFormsAndDeliversToSelf) {
  Cluster c({1});
  c.node(1).found();
  c.send(1, "hello");
  c.run(millis(100));
  ASSERT_EQ(c.delivered(1).size(), 1u);
  EXPECT_EQ(c.delivered(1)[0].payload, "hello");
  EXPECT_EQ(c.delivered(1)[0].origin, 1u);
  EXPECT_EQ(c.node(1).view().members, std::vector<NodeId>{1});
}

TEST(SessionBasic, FoundAllMergesIntoOneGroupViaDiscovery) {
  Cluster c({1, 2, 3, 4});
  c.found_all();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)))
      << "discovery/merge did not unify the groups";
  // Group ID is the lowest node id.
  EXPECT_EQ(c.node(3).view().group_id, 1u);
}

TEST(SessionBasic, BootstrapViaJoin) {
  Cluster c({1, 2, 3, 4, 5});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4, 5}, seconds(10)));
}

TEST(SessionBasic, TokenCirculates) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  auto before = c.node(2).stats().tokens_received.value();
  c.run(seconds(1));
  auto after = c.node(2).stats().tokens_received.value();
  EXPECT_GT(after, before + 10) << "token is not circulating";
}

TEST(SessionBasic, AgreedMulticastReachesAllMembers) {
  Cluster c({1, 2, 3, 4});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  c.send(2, "from-2");
  c.send(4, "from-4");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 2u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(SessionBasic, AgreedOrderingIsIdenticalEverywhere) {
  Cluster c({1, 2, 3, 4, 5});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4, 5}, seconds(10)));
  // Interleave sends from several origins over time.
  for (int round = 0; round < 10; ++round) {
    for (NodeId id : c.ids()) {
      c.send(id, "r" + std::to_string(round) + "-n" + std::to_string(id));
      c.run(millis(3));
    }
  }
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 50u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(SessionBasic, SafeMulticastDeliversAfterExtraRound) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  c.send(1, "safe-msg", Ordering::kSafe);
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].ordering, Ordering::kSafe);
    EXPECT_EQ(c.delivered(id)[0].payload, "safe-msg");
  }
}

TEST(SessionBasic, SafeDeliveryIsLaterThanAgreedForSameSubmission) {
  Cluster c({1, 2, 3, 4});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  c.send(1, "agreed", Ordering::kAgreed);
  c.send(1, "safe", Ordering::kSafe);
  c.run(seconds(2));
  // On a non-origin node, "agreed" must be delivered before "safe" even
  // though both were submitted together: safe costs one extra round (§2.6).
  const auto& d = c.delivered(3);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].payload, "agreed");
  EXPECT_EQ(d[1].payload, "safe");
}

TEST(SessionBasic, MutualExclusionRunsExactlyOnceAndWhileEating) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  int runs = 0;
  bool was_eating = false;
  c.node(2).run_exclusive([&] {
    ++runs;
    was_eating = c.node(2).holds_token();
  });
  c.run(seconds(1));
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(was_eating);
}

TEST(SessionBasic, ExclusiveSectionsDoNotOverlapAcrossNodes) {
  Cluster c({1, 2, 3, 4});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  int active = 0;
  int max_active = 0;
  int total = 0;
  for (NodeId id : c.ids()) {
    for (int k = 0; k < 5; ++k) {
      c.node(id).run_exclusive([&] {
        ++active;
        max_active = std::max(max_active, active);
        ++total;
        --active;
      });
    }
  }
  c.run(seconds(2));
  EXPECT_EQ(total, 20);
  EXPECT_EQ(max_active, 1);
}

TEST(SessionBasic, GracefulLeaveShrinksMembership) {
  Cluster c({1, 2, 3, 4});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  c.node(3).leave();
  ASSERT_TRUE(c.run_until_converged({1, 2, 4}, seconds(5)));
  EXPECT_FALSE(c.node(3).started());
}

TEST(SessionBasic, ViewChangeCallbacksAreMonotonic) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  const auto& vs = c.views(1);
  ASSERT_FALSE(vs.empty());
  for (std::size_t i = 1; i < vs.size(); ++i) {
    EXPECT_GE(vs[i].view_id, vs[i - 1].view_id);
  }
}

TEST(SessionBasic, MulticastBeforeJoinIsDeliveredOnceMember) {
  Cluster c({1, 2});
  c.node(1).found();
  c.run(millis(50));
  c.node(2).join({1});
  c.send(2, "early");  // queued while still joining
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(5)));
  c.run(seconds(1));
  ASSERT_EQ(c.delivered(1).size(), 1u);
  EXPECT_EQ(c.delivered(1)[0].payload, "early");
}

TEST(SessionBasic, OpenGroupSubmitReachesWholeGroup) {
  // §2.6: "a node can send a message to any member of the Raincore group,
  // and that member then forwards the message to the entire group."
  Cluster c({1, 2, 3, 9});  // node 9 stays outside the group
  c.node(1).found();
  c.node(2).join({1});
  c.node(3).join({1});
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  std::string s = "from-outside";
  c.node(9).submit_open(2, Bytes(s.begin(), s.end()));
  c.run(seconds(1));
  for (NodeId id : {1u, 2u, 3u}) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "from-outside");
    EXPECT_EQ(c.delivered(id)[0].origin, 2u) << "gateway member is the origin";
  }
  EXPECT_TRUE(c.delivered(9).empty()) << "outsider is not a group member";
}

TEST(SessionBasic, LargeGroupConverges) {
  std::vector<NodeId> ids;
  for (NodeId i = 1; i <= 16; ++i) ids.push_back(i);
  Cluster c(ids);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged(ids, seconds(30)));
  c.send(7, "big-group");
  c.run(seconds(2));
  for (NodeId id : ids) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
  }
}

}  // namespace
}  // namespace raincore
