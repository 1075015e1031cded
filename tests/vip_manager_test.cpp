// Virtual IP manager: mutually exclusive assignment, balanced spread,
// fail-over with gratuitous ARP, and manual moves.
#include <gtest/gtest.h>

#include <memory>

#include "apps/vip/vip_manager.h"
#include "net/sim_network.h"
#include "session/session_mux.h"

namespace raincore {
namespace {

using apps::Subnet;
using apps::VipConfig;
using apps::VipManager;

class VipCluster {
 public:
  VipCluster(std::vector<NodeId> ids, std::vector<std::string> pool) {
    session::SessionConfig cfg;
    cfg.eligible = ids;
    for (NodeId id : ids) {
      auto& env = net_.add_node(id);
      Holder h;
      h.node = std::make_unique<session::SessionMux>(env, cfg.transport);
      h.session = &h.node->create_ring(0, cfg);
      h.mux = std::make_unique<data::ChannelMux>(*h.session);
      h.vips = std::make_unique<VipManager>(*h.mux, subnet_, VipConfig{pool, 100});
      nodes_[id] = std::move(h);
    }
  }

  void bootstrap() {
    auto it = nodes_.begin();
    it->second.session->found();
    NodeId seed = it->first;
    for (++it; it != nodes_.end(); ++it) it->second.session->join({seed});
    run(seconds(5));
  }

  void run(Time d) { net_.loop().run_for(d); }
  VipManager& vips(NodeId id) { return *nodes_.at(id).vips; }
  session::SessionNode& session(NodeId id) { return *nodes_.at(id).session; }
  Subnet& subnet() { return subnet_; }
  net::SimNetwork& net() { return net_; }
  std::vector<NodeId> ids() const {
    std::vector<NodeId> out;
    for (auto& [id, h] : nodes_) out.push_back(id);
    return out;
  }

  /// Each VIP owned by exactly one live node, consistently across replicas.
  bool assignment_consistent(const std::vector<std::string>& pool,
                             const std::vector<NodeId>& live) {
    for (const std::string& vip : pool) {
      std::optional<NodeId> expect;
      for (NodeId id : live) {
        auto o = vips(id).owner_of(vip);
        if (!o) return false;
        if (!expect) expect = o;
        if (*o != *expect) return false;
      }
      if (std::find(live.begin(), live.end(), *expect) == live.end())
        return false;
    }
    return true;
  }

 private:
  struct Holder {
    std::unique_ptr<session::SessionMux> node;
    session::SessionNode* session = nullptr;
    std::unique_ptr<data::ChannelMux> mux;
    std::unique_ptr<VipManager> vips;
  };
  net::SimNetwork net_;
  Subnet subnet_;
  std::map<NodeId, Holder> nodes_;
};

const std::vector<std::string> kPool = {"10.0.0.1", "10.0.0.2", "10.0.0.3",
                                        "10.0.0.4"};

TEST(VipManagerTest, AllVipsAssignedAfterBootstrap) {
  VipCluster c({1, 2}, kPool);
  c.bootstrap();
  EXPECT_TRUE(c.assignment_consistent(kPool, {1, 2}));
  // Every VIP answered by the subnet ARP cache.
  for (const auto& vip : kPool) {
    EXPECT_TRUE(c.subnet().resolve(vip).has_value()) << vip;
  }
}

TEST(VipManagerTest, AssignmentIsBalanced) {
  VipCluster c({1, 2, 3, 4}, kPool);
  c.bootstrap();
  // 4 VIPs over 4 nodes: each serves exactly one.
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.vips(id).my_vips().size(), 1u) << "node " << id;
  }
}

TEST(VipManagerTest, NoVipOwnedByTwoNodes) {
  VipCluster c({1, 2, 3}, kPool);
  c.bootstrap();
  std::map<std::string, int> claim_count;
  for (NodeId id : c.ids()) {
    for (const auto& vip : c.vips(id).my_vips()) claim_count[vip]++;
  }
  for (const auto& vip : kPool) {
    EXPECT_EQ(claim_count[vip], 1) << vip << " claimed by multiple nodes";
  }
}

TEST(VipManagerTest, FailoverMovesVipsToSurvivors) {
  VipCluster c({1, 2, 3}, kPool);
  c.bootstrap();
  ASSERT_TRUE(c.assignment_consistent(kPool, {1, 2, 3}));
  std::size_t arps_before = c.subnet().arp_log().size();

  c.net().set_node_up(3, false);
  c.session(3).stop();
  c.run(seconds(5));

  EXPECT_TRUE(c.assignment_consistent(kPool, {1, 2}))
      << "VIPs of the failed node were not taken over";
  // Subnet must route every VIP to a live node ("the virtual IPs never
  // disappear as long as at least one physical node is functional").
  for (const auto& vip : kPool) {
    auto owner = c.subnet().resolve(vip);
    ASSERT_TRUE(owner.has_value()) << vip;
    EXPECT_NE(*owner, 3u) << vip << " still routed to the dead node";
  }
  EXPECT_GT(c.subnet().arp_log().size(), arps_before)
      << "no gratuitous ARP was sent for the moved VIPs";
}

TEST(VipManagerTest, CascadeToSingleSurvivor) {
  VipCluster c({1, 2, 3, 4}, kPool);
  c.bootstrap();
  for (NodeId victim : {4u, 3u, 2u}) {
    c.net().set_node_up(victim, false);
    c.session(victim).stop();
    c.run(seconds(5));
  }
  // The last node serves the whole pool.
  EXPECT_EQ(c.vips(1).my_vips().size(), kPool.size());
  for (const auto& vip : kPool) {
    EXPECT_EQ(*c.subnet().resolve(vip), 1u) << vip;
  }
}

TEST(VipManagerTest, ManualMoveRelocatesVip) {
  VipCluster c({1, 2}, kPool);
  c.bootstrap();
  const std::string vip = kPool[0];
  NodeId owner = *c.vips(1).owner_of(vip);
  NodeId target = owner == 1 ? 2 : 1;
  c.vips(1).move(vip, target);
  c.run(seconds(2));
  EXPECT_EQ(*c.vips(1).owner_of(vip), target);
  EXPECT_EQ(*c.vips(2).owner_of(vip), target);
  EXPECT_EQ(*c.subnet().resolve(vip), target);
}

TEST(VipManagerTest, JoinerTriggersRebalanceTowardEvenSpread) {
  VipCluster c({1, 2, 3, 4}, kPool);
  // Start with only node 1: it owns all 4 VIPs.
  c.session(1).found();
  c.run(seconds(2));
  EXPECT_EQ(c.vips(1).my_vips().size(), 4u);
  // Three nodes join; the rebalancer must spread the pool 1/1/1/1.
  c.session(2).join({1});
  c.session(3).join({1});
  c.session(4).join({1});
  c.run(seconds(8));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.vips(id).my_vips().size(), 1u) << "node " << id;
  }
}

TEST(VipManagerTest, RestartedNodeRebalancesCleanly) {
  // Regression: a crash-restarted node used to keep its pre-crash `mine_`
  // set and replica, so re-granted VIPs fired no gratuitous ARP and the
  // subnet kept routing them to the wrong node.
  VipCluster c({1, 2}, kPool);
  c.bootstrap();
  c.net().set_node_up(2, false);
  c.session(2).stop();
  c.run(seconds(4));
  ASSERT_EQ(c.vips(1).my_vips().size(), kPool.size());

  c.net().set_node_up(2, true);
  c.session(2).join({1});
  c.run(seconds(8));
  // Balanced 2/2 again, and the subnet agrees with the assignment map.
  EXPECT_EQ(c.vips(1).my_vips().size(), 2u);
  EXPECT_EQ(c.vips(2).my_vips().size(), 2u);
  for (const auto& vip : kPool) {
    auto owner = c.vips(1).owner_of(vip);
    ASSERT_TRUE(owner.has_value()) << vip;
    ASSERT_TRUE(c.subnet().resolve(vip).has_value()) << vip;
    EXPECT_EQ(*c.subnet().resolve(vip), *owner)
        << vip << ": subnet ARP disagrees with assignment";
  }
}

TEST(VipManagerTest, ManualMoveInSteadyStateIsNotFoughtByRebalancer) {
  VipCluster c({1, 2}, kPool);
  c.bootstrap();
  // Move everything to node 2 manually (diff > 1): steady-state moves are
  // operator decisions and must stand.
  for (const auto& vip : kPool) c.vips(1).move(vip, 2);
  c.run(seconds(3));
  EXPECT_EQ(c.vips(2).my_vips().size(), kPool.size());
  EXPECT_EQ(c.vips(1).my_vips().size(), 0u);
}

TEST(VipManagerTest, GainLossCallbacksFire) {
  VipCluster c({1, 2}, kPool);
  int gains = 0, losses = 0;
  c.vips(1).set_gain_handler([&](const std::string&) { ++gains; });
  c.vips(1).set_loss_handler([&](const std::string&) { ++losses; });
  c.bootstrap();
  // Node 1 founds alone (gains everything), then cedes a share when node 2
  // joins; the running balance must always equal current ownership.
  EXPECT_EQ(gains - losses, static_cast<int>(c.vips(1).my_vips().size()));
  EXPECT_GT(gains, 0);
  // Kill node 2 → node 1 takes over the whole pool.
  int losses_before = losses;
  c.net().set_node_up(2, false);
  c.session(2).stop();
  c.run(seconds(5));
  EXPECT_EQ(c.vips(1).my_vips().size(), 4u);
  EXPECT_EQ(gains - losses, 4);
  EXPECT_EQ(losses, losses_before) << "takeover must not lose VIPs";
}

}  // namespace
}  // namespace raincore
