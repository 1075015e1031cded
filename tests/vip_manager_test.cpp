// Virtual IP manager: mutually exclusive assignment, balanced spread,
// fail-over with gratuitous ARP, and manual moves.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "apps/vip/vip_manager.h"
#include "testing/cluster.h"

namespace raincore {
namespace {

using apps::Subnet;
using apps::VipConfig;
using apps::VipManager;

using testing::Cluster;

const std::vector<std::string> kPool = {"10.0.0.1", "10.0.0.2", "10.0.0.3",
                                        "10.0.0.4"};

/// A VIP manager for kPool over a channel mux on one node's ring.
struct VipNode {
  VipNode(session::SessionNode& ring, Subnet& subnet)
      : channels(ring), vips(channels, subnet, VipConfig{kPool, 100}) {}
  data::ChannelMux channels;
  VipManager vips;
};
using VipNodes = std::map<NodeId, std::unique_ptr<VipNode>>;

VipNodes vips_on(Cluster& c, Subnet& subnet) {
  VipNodes out;
  for (NodeId id : c.ids()) {
    out[id] = std::make_unique<VipNode>(c.node(id), subnet);
  }
  return out;
}

/// Node 1 founds the ring, the rest join through it; runs 5 s.
void bootstrap(Cluster& c) {
  c.bootstrap_via_join();
  c.run(seconds(5));
}

/// Each VIP owned by exactly one live node, consistently across replicas.
bool assignment_consistent(const VipNodes& v, const std::vector<NodeId>& live) {
  for (const std::string& vip : kPool) {
    std::optional<NodeId> expect;
    for (NodeId id : live) {
      auto o = v.at(id)->vips.owner_of(vip);
      if (!o) return false;
      if (!expect) expect = o;
      if (*o != *expect) return false;
    }
    if (std::find(live.begin(), live.end(), *expect) == live.end())
      return false;
  }
  return true;
}

TEST(VipManagerTest, AllVipsAssignedAfterBootstrap) {
  Cluster c({1, 2});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  EXPECT_TRUE(assignment_consistent(v, {1, 2}));
  // Every VIP answered by the subnet ARP cache.
  for (const auto& vip : kPool) {
    EXPECT_TRUE(subnet.resolve(vip).has_value()) << vip;
  }
}

TEST(VipManagerTest, AssignmentIsBalanced) {
  Cluster c({1, 2, 3, 4});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  // 4 VIPs over 4 nodes: each serves exactly one.
  for (NodeId id : c.ids()) {
    EXPECT_EQ(v.at(id)->vips.my_vips().size(), 1u) << "node " << id;
  }
}

TEST(VipManagerTest, NoVipOwnedByTwoNodes) {
  Cluster c({1, 2, 3});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  std::map<std::string, int> claim_count;
  for (NodeId id : c.ids()) {
    for (const auto& vip : v.at(id)->vips.my_vips()) claim_count[vip]++;
  }
  for (const auto& vip : kPool) {
    EXPECT_EQ(claim_count[vip], 1) << vip << " claimed by multiple nodes";
  }
}

TEST(VipManagerTest, FailoverMovesVipsToSurvivors) {
  Cluster c({1, 2, 3});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  ASSERT_TRUE(assignment_consistent(v, {1, 2, 3}));
  std::size_t arps_before = subnet.arp_log().size();

  c.net().set_node_up(3, false);
  c.node(3).stop();
  c.run(seconds(5));

  EXPECT_TRUE(assignment_consistent(v, {1, 2}))
      << "VIPs of the failed node were not taken over";
  // Subnet must route every VIP to a live node ("the virtual IPs never
  // disappear as long as at least one physical node is functional").
  for (const auto& vip : kPool) {
    auto owner = subnet.resolve(vip);
    ASSERT_TRUE(owner.has_value()) << vip;
    EXPECT_NE(*owner, 3u) << vip << " still routed to the dead node";
  }
  EXPECT_GT(subnet.arp_log().size(), arps_before)
      << "no gratuitous ARP was sent for the moved VIPs";
}

TEST(VipManagerTest, CascadeToSingleSurvivor) {
  Cluster c({1, 2, 3, 4});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  for (NodeId victim : {4u, 3u, 2u}) {
    c.net().set_node_up(victim, false);
    c.node(victim).stop();
    c.run(seconds(5));
  }
  // The last node serves the whole pool.
  EXPECT_EQ(v.at(1)->vips.my_vips().size(), kPool.size());
  for (const auto& vip : kPool) {
    EXPECT_EQ(*subnet.resolve(vip), 1u) << vip;
  }
}

TEST(VipManagerTest, ManualMoveRelocatesVip) {
  Cluster c({1, 2});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  const std::string vip = kPool[0];
  NodeId owner = *v.at(1)->vips.owner_of(vip);
  NodeId target = owner == 1 ? 2 : 1;
  v.at(1)->vips.move(vip, target);
  c.run(seconds(2));
  EXPECT_EQ(*v.at(1)->vips.owner_of(vip), target);
  EXPECT_EQ(*v.at(2)->vips.owner_of(vip), target);
  EXPECT_EQ(*subnet.resolve(vip), target);
}

TEST(VipManagerTest, JoinerTriggersRebalanceTowardEvenSpread) {
  Cluster c({1, 2, 3, 4});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  // Start with only node 1: it owns all 4 VIPs.
  c.node(1).found();
  c.run(seconds(2));
  EXPECT_EQ(v.at(1)->vips.my_vips().size(), 4u);
  // Three nodes join; the rebalancer must spread the pool 1/1/1/1.
  c.node(2).join({1});
  c.node(3).join({1});
  c.node(4).join({1});
  c.run(seconds(8));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(v.at(id)->vips.my_vips().size(), 1u) << "node " << id;
  }
}

TEST(VipManagerTest, RestartedNodeRebalancesCleanly) {
  // Regression: a crash-restarted node used to keep its pre-crash `mine_`
  // set and replica, so re-granted VIPs fired no gratuitous ARP and the
  // subnet kept routing them to the wrong node.
  Cluster c({1, 2});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  c.net().set_node_up(2, false);
  c.node(2).stop();
  c.run(seconds(4));
  ASSERT_EQ(v.at(1)->vips.my_vips().size(), kPool.size());

  c.net().set_node_up(2, true);
  c.node(2).join({1});
  c.run(seconds(8));
  // Balanced 2/2 again, and the subnet agrees with the assignment map.
  EXPECT_EQ(v.at(1)->vips.my_vips().size(), 2u);
  EXPECT_EQ(v.at(2)->vips.my_vips().size(), 2u);
  for (const auto& vip : kPool) {
    auto owner = v.at(1)->vips.owner_of(vip);
    ASSERT_TRUE(owner.has_value()) << vip;
    ASSERT_TRUE(subnet.resolve(vip).has_value()) << vip;
    EXPECT_EQ(*subnet.resolve(vip), *owner)
        << vip << ": subnet ARP disagrees with assignment";
  }
}

TEST(VipManagerTest, ManualMoveInSteadyStateIsNotFoughtByRebalancer) {
  Cluster c({1, 2});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  bootstrap(c);
  // Move everything to node 2 manually (diff > 1): steady-state moves are
  // operator decisions and must stand.
  for (const auto& vip : kPool) v.at(1)->vips.move(vip, 2);
  c.run(seconds(3));
  EXPECT_EQ(v.at(2)->vips.my_vips().size(), kPool.size());
  EXPECT_EQ(v.at(1)->vips.my_vips().size(), 0u);
}

TEST(VipManagerTest, GainLossCallbacksFire) {
  Cluster c({1, 2});
  Subnet subnet;
  auto v = vips_on(c, subnet);
  int gains = 0, losses = 0;
  v.at(1)->vips.set_gain_handler([&](const std::string&) { ++gains; });
  v.at(1)->vips.set_loss_handler([&](const std::string&) { ++losses; });
  bootstrap(c);
  // Node 1 founds alone (gains everything), then cedes a share when node 2
  // joins; the running balance must always equal current ownership.
  EXPECT_EQ(gains - losses, static_cast<int>(v.at(1)->vips.my_vips().size()));
  EXPECT_GT(gains, 0);
  // Kill node 2 → node 1 takes over the whole pool.
  int losses_before = losses;
  c.net().set_node_up(2, false);
  c.node(2).stop();
  c.run(seconds(5));
  EXPECT_EQ(v.at(1)->vips.my_vips().size(), 4u);
  EXPECT_EQ(gains - losses, 4);
  EXPECT_EQ(losses, losses_before) << "takeover must not lose VIPs";
}

}  // namespace
}  // namespace raincore
