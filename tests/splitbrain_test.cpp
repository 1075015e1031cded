// Split-brain strategies (§2.4): the quorum decider (prevention strategy 1),
// redundant links making partitions less likely (§2.1/§2.4), and the
// critical-resource shutdown device.
#include <gtest/gtest.h>

#include "testing/cluster.h"

namespace raincore {
namespace {

using testing::Cluster;

TEST(SplitBrain, QuorumDeciderShutsDownMinority) {
  session::SessionConfig cfg;
  cfg.quorum_of = 4;  // N = 4: any view of size <= 2 self-terminates
  Cluster c({1, 2, 3, 4}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));

  // Partition 1|3: the singleton side must shut itself down; the 3-side
  // (majority) keeps running.
  c.net().partition({{1}, {2, 3, 4}});
  c.run(seconds(5));
  EXPECT_FALSE(c.node(1).started()) << "minority node did not shut down";
  for (NodeId id : {2u, 3u, 4u}) {
    EXPECT_TRUE(c.node(id).started()) << "majority node " << id << " died";
  }
  ASSERT_TRUE(c.run_until_converged({2, 3, 4}, seconds(5)));
}

TEST(SplitBrain, QuorumDeciderKillsBothHalvesOnEvenSplit) {
  // The safety-over-availability trade the paper criticises: a clean 2|2
  // split of N=4 stops *everything* (both sides are at N/2).
  session::SessionConfig cfg;
  cfg.quorum_of = 4;
  Cluster c({1, 2, 3, 4}, cfg);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  int shutdowns = 0;
  for (NodeId id : c.ids()) {
    c.node(id).set_quorum_shutdown_handler([&] { ++shutdowns; });
  }
  c.net().partition({{1, 2}, {3, 4}});
  c.run(seconds(5));
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.node(id).started()) << "node " << id;
  }
  EXPECT_EQ(shutdowns, 4);
}

TEST(SplitBrain, DefaultStrategyKeepsBothHalvesAlive) {
  // Raincore's default (§2.4 strategy 2): both sub-groups stay functional.
  Cluster c({1, 2, 3, 4});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)));
  c.net().partition({{1, 2}, {3, 4}});
  c.run(seconds(5));
  for (NodeId id : c.ids()) {
    EXPECT_TRUE(c.node(id).started()) << "node " << id;
  }
  c.send(1, "left-half");
  c.send(3, "right-half");
  c.run(seconds(1));
  EXPECT_EQ(c.delivered(2).back().payload, "left-half");
  EXPECT_EQ(c.delivered(4).back().payload, "right-half");
}

TEST(SplitBrain, RedundantLinksPreventPartitionFromSingleLinkFailure) {
  // §2.1/§2.4: "The Raincore Transport Service supports redundant
  // communication links between nodes, which makes the isolation of
  // sub-groups less likely to occur."
  Cluster c({1, 2, 3}, session::SessionConfig{}, {}, {}, /*ifaces=*/2);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  // Kill the primary (iface-0) path between every pair of nodes.
  for (NodeId a : c.ids()) {
    for (NodeId b : c.ids()) {
      if (a < b) {
        c.net().set_link_up(net::Address{a, 0}, net::Address{b, 0}, false);
      }
    }
  }
  // With a single link this would shatter the group; with redundant links
  // the token keeps flowing over the secondary path and nobody is removed.
  auto removals_before = c.node(1).stats().removals.value() +
                         c.node(2).stats().removals.value() +
                         c.node(3).stats().removals.value();
  c.run(seconds(5));
  EXPECT_TRUE(c.converged({1, 2, 3})) << "membership broke despite redundancy";
  auto removals_after = c.node(1).stats().removals.value() +
                        c.node(2).stats().removals.value() +
                        c.node(3).stats().removals.value();
  EXPECT_EQ(removals_after, removals_before) << "spurious removals occurred";

  c.send(2, "over-secondary-link");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.delivered(id).back().payload, "over-secondary-link")
        << "node " << id;
  }
}

TEST(SplitBrain, ParallelStrategyMasksPrimaryLinkLossWithoutRtoStall) {
  transport::TransportConfig tcfg;
  tcfg.strategy = transport::SendStrategy::kParallel;
  Cluster c({1, 2}, session::SessionConfig{}, {}, tcfg, /*ifaces=*/2);
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(10)));
  c.net().set_link_up(net::Address{1, 0}, net::Address{2, 0}, false);
  c.node(1).stats().roundtrip.reset();
  c.run(seconds(2));
  // Token roundtrips continue at full rate: 2 nodes * (5 ms hold + wire).
  ASSERT_GT(c.node(1).stats().roundtrip.count(), 50u);
  EXPECT_LT(c.node(1).stats().roundtrip.mean() / 1e6, 15.0)
      << "parallel sends should not stall on the dead primary";
}

}  // namespace
}  // namespace raincore
