// Distributed Data Service: replicated map convergence and snapshot-on-join,
// distributed lock manager safety, fairness and dead-holder recovery.
#include <gtest/gtest.h>

#include <memory>

#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "net/sim_network.h"
#include "session/session_mux.h"

namespace raincore {
namespace {

using data::ChannelMux;
using data::LockManager;
using data::ReplicatedMap;
using session::SessionNode;

constexpr data::Channel kMapCh = 1;
constexpr data::Channel kLockCh = 2;

struct DataNode {
  std::unique_ptr<session::SessionMux> node;
  SessionNode* session = nullptr;
  std::unique_ptr<ChannelMux> mux;
  std::unique_ptr<ReplicatedMap> map;
  std::unique_ptr<LockManager> locks;
};

class DataCluster {
 public:
  explicit DataCluster(std::vector<NodeId> ids) {
    session::SessionConfig cfg;
    cfg.eligible = ids;
    for (NodeId id : ids) {
      auto& env = net_.add_node(id);
      DataNode n;
      n.node = std::make_unique<session::SessionMux>(env, cfg.transport);
      n.session = &n.node->create_ring(0, cfg);
      n.mux = std::make_unique<ChannelMux>(*n.session);
      n.map = std::make_unique<ReplicatedMap>(*n.mux, kMapCh);
      n.locks = std::make_unique<LockManager>(*n.mux, kLockCh);
      nodes_[id] = std::move(n);
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
  DataNode& node(NodeId id) { return nodes_.at(id); }
  net::SimNetwork& net() { return net_; }
  std::vector<NodeId> ids() const {
    std::vector<NodeId> out;
    for (auto& [id, n] : nodes_) out.push_back(id);
    return out;
  }

 private:
  net::SimNetwork net_;
  std::map<NodeId, DataNode> nodes_;
};

TEST(ReplicatedMapTest, PutPropagatesToAllReplicas) {
  DataCluster c({1, 2, 3});
  c.bootstrap();
  c.node(1).map->put("color", "red");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_TRUE(c.node(id).map->get("color").has_value()) << "node " << id;
    EXPECT_EQ(*c.node(id).map->get("color"), "red");
  }
}

TEST(ReplicatedMapTest, ConcurrentWritersConvergeIdentically) {
  DataCluster c({1, 2, 3, 4});
  c.bootstrap();
  for (int i = 0; i < 10; ++i) {
    for (NodeId id : c.ids()) {
      c.node(id).map->put("k" + std::to_string(i % 3),
                          "v" + std::to_string(id) + "-" + std::to_string(i));
    }
  }
  c.run(seconds(2));
  const auto& ref = c.node(1).map->contents();
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).map->contents(), ref) << "node " << id << " diverged";
  }
  EXPECT_EQ(ref.size(), 3u);
}

TEST(ReplicatedMapTest, EraseReplicates) {
  DataCluster c({1, 2, 3});
  c.bootstrap();
  c.node(1).map->put("tmp", "x");
  c.run(seconds(1));
  c.node(2).map->erase("tmp");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.node(id).map->contains("tmp")) << "node " << id;
  }
}

TEST(ReplicatedMapTest, JoinerReceivesSnapshot) {
  DataCluster c({1, 2, 3});
  // Start only nodes 1 and 2; populate; then node 3 joins.
  c.node(1).session->found();
  c.node(2).session->join({1});
  c.run(seconds(3));
  c.node(1).map->put("a", "1");
  c.node(2).map->put("b", "2");
  c.run(seconds(1));
  EXPECT_FALSE(c.node(3).map->synced());
  c.node(3).session->join({1});
  c.run(seconds(5));
  EXPECT_TRUE(c.node(3).map->synced());
  EXPECT_EQ(c.node(3).map->contents(), c.node(1).map->contents());
  EXPECT_EQ(c.node(3).map->size(), 2u);
}

TEST(ReplicatedMapTest, UpdatesDuringJoinLineariseWithSnapshot) {
  DataCluster c({1, 2, 3});
  c.node(1).session->found();
  c.node(2).session->join({1});
  c.run(seconds(3));
  for (int i = 0; i < 20; ++i) c.node(1).map->put("k" + std::to_string(i), "v");
  c.node(3).session->join({1});
  // Keep writing while the join + snapshot are in flight.
  for (int i = 0; i < 20; ++i) {
    c.node(2).map->put("w" + std::to_string(i), "x");
    c.run(millis(5));
  }
  c.run(seconds(5));
  ASSERT_TRUE(c.node(3).map->synced());
  EXPECT_EQ(c.node(3).map->contents(), c.node(1).map->contents());
}

TEST(LockManagerTest, AcquireGrantsAndOwnershipIsVisible) {
  DataCluster c({1, 2, 3});
  c.bootstrap();
  bool granted = false;
  c.node(2).locks->acquire("L", [&](const std::string&) { granted = true; });
  c.run(seconds(1));
  EXPECT_TRUE(granted);
  for (NodeId id : c.ids()) {
    ASSERT_TRUE(c.node(id).locks->owner("L").has_value()) << "node " << id;
    EXPECT_EQ(*c.node(id).locks->owner("L"), 2u);
  }
  EXPECT_TRUE(c.node(2).locks->held_by_me("L"));
  EXPECT_FALSE(c.node(1).locks->held_by_me("L"));
}

TEST(LockManagerTest, ContendersQueueInAgreedOrderAndNeverOverlap) {
  DataCluster c({1, 2, 3, 4});
  c.bootstrap();
  int holders = 0;
  int max_holders = 0;
  std::vector<NodeId> grant_order;
  for (NodeId id : c.ids()) {
    c.node(id).locks->acquire("L", [&, id](const std::string&) {
      ++holders;
      max_holders = std::max(max_holders, holders);
      grant_order.push_back(id);
      // Hold for a while, then release.
      c.node(id).locks->release("L");
      --holders;
    });
    c.run(millis(2));
  }
  c.run(seconds(3));
  EXPECT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(max_holders, 1) << "mutual exclusion violated";
  // All replicas agree the lock is free at the end.
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.node(id).locks->owner("L").has_value()) << "node " << id;
  }
}

TEST(LockManagerTest, DeadOwnersLockIsReleasedAndPromoted) {
  DataCluster c({1, 2, 3});
  c.bootstrap();
  c.node(3).locks->acquire("L");
  c.run(seconds(1));
  ASSERT_TRUE(c.node(3).locks->held_by_me("L"));
  bool granted_to_2 = false;
  c.node(2).locks->acquire("L", [&](const std::string&) { granted_to_2 = true; });
  c.run(seconds(1));
  EXPECT_FALSE(granted_to_2);
  // Owner dies; the EPOCH purge must promote node 2 on every replica.
  c.net().set_node_up(3, false);
  c.node(3).session->stop();
  c.run(seconds(5));
  EXPECT_TRUE(granted_to_2) << "waiter was not promoted after owner death";
  EXPECT_EQ(*c.node(1).locks->owner("L"), 2u);
}

TEST(LockManagerTest, ReleaseOfQueuedRequestWithdrawsIt) {
  DataCluster c({1, 2});
  c.bootstrap();
  c.node(1).locks->acquire("L");
  c.run(seconds(1));
  bool granted = false;
  c.node(2).locks->acquire("L", [&](const std::string&) { granted = true; });
  c.run(millis(500));
  c.node(2).locks->release("L");  // withdraw while still queued
  c.run(millis(500));
  c.node(1).locks->release("L");
  c.run(seconds(1));
  EXPECT_FALSE(granted);
  EXPECT_FALSE(c.node(1).locks->owner("L").has_value());
}

TEST(ReplicatedMapTest, CrashRestartedReplicaResyncsFromScratch) {
  DataCluster c({1, 2, 3});
  c.bootstrap();
  c.node(1).map->put("k", "v1");
  c.run(seconds(1));
  ASSERT_EQ(*c.node(3).map->get("k"), "v1");

  // Node 3 crashes; the survivors keep mutating.
  c.net().set_node_up(3, false);
  c.node(3).session->stop();
  c.run(seconds(3));
  c.node(1).map->put("k", "v2");
  c.node(2).map->put("fresh", "x");
  c.run(seconds(1));

  // Restart: the new incarnation must drop its stale replica and resync.
  c.net().set_node_up(3, true);
  c.node(3).session->join({1});
  c.run(seconds(5));
  ASSERT_TRUE(c.node(3).map->synced());
  EXPECT_EQ(*c.node(3).map->get("k"), "v2");
  EXPECT_EQ(c.node(3).map->contents(), c.node(1).map->contents());
}

TEST(LockManagerTest, CrashRestartedNodeDropsStaleLockTable) {
  DataCluster c({1, 2});
  c.bootstrap();
  c.node(2).locks->acquire("L");
  c.run(seconds(1));
  ASSERT_TRUE(c.node(2).locks->held_by_me("L"));

  // Node 2 dies holding L; node 1's EPOCH purge frees it.
  c.net().set_node_up(2, false);
  c.node(2).session->stop();
  c.run(seconds(3));
  EXPECT_FALSE(c.node(1).locks->owner("L").has_value());

  // Restarted node 2 must not believe it still holds L.
  c.net().set_node_up(2, true);
  c.node(2).session->join({1});
  c.run(seconds(5));
  EXPECT_FALSE(c.node(2).locks->held_by_me("L"));
  bool granted = false;
  c.node(1).locks->acquire("L", [&](const std::string&) { granted = true; });
  c.run(seconds(1));
  EXPECT_TRUE(granted);
}

TEST(LockManagerTest, ReacquireWhileReleaseInFlightIsNotGrantedEarly) {
  // Regression: a holder that releases and immediately re-acquires used to
  // be re-granted off its *previous* (not yet released) ownership whenever
  // any queue activity triggered maybe_grant — so its second critical
  // section could run before its first section's writes had circulated,
  // and other contenders were starved. Grants must be tied to the request
  // that actually reached the queue head.
  DataCluster c({1, 2, 3});
  c.bootstrap();
  std::vector<std::pair<NodeId, int>> grants;  // (node, observed counter)
  int counter = 0;
  std::function<void(NodeId, int)> loop = [&](NodeId id, int remaining) {
    if (remaining == 0) return;
    c.node(id).locks->acquire("L", [&, id, remaining](const std::string&) {
      grants.emplace_back(id, counter++);
      c.node(id).locks->release("L");
      loop(id, remaining - 1);
    });
  };
  for (NodeId id : c.ids()) loop(id, 4);
  c.run(seconds(20));
  ASSERT_EQ(grants.size(), 12u);
  // Fairness: with everyone re-queueing, no node may hog consecutive
  // grants while others wait (the bug produced runs of 3-4 per node).
  int max_run = 1, run = 1;
  for (std::size_t i = 1; i < grants.size(); ++i) {
    run = grants[i].first == grants[i - 1].first ? run + 1 : 1;
    max_run = std::max(max_run, run);
  }
  EXPECT_LE(max_run, 2) << "a node monopolised the lock across re-acquires";
}

TEST(ReplicatedMapTest, SplitBrainMergeReconvergesAllReplicas) {
  // §2.4 strategy 2: both halves stay functional through the partition and
  // mutate independently; after the heal the merge reconciliation must leave
  // every replica with the identical table.
  DataCluster c({1, 2, 3, 4});
  c.bootstrap();
  c.node(1).map->put("shared", "before");
  c.run(seconds(1));
  c.net().partition({{1, 2}, {3, 4}});
  c.run(seconds(2));  // both sides recover a token of their own
  c.node(1).map->put("left", "L");
  c.node(3).map->put("right", "R");
  c.node(1).map->put("shared", "from-left");
  c.node(4).map->put("shared", "from-right");
  c.run(seconds(1));
  c.net().heal_partition();
  c.run(seconds(8));  // discovery merges; reconcile circulates
  const auto& ref = c.node(1).map->contents();
  for (NodeId id : c.ids()) {
    EXPECT_TRUE(c.node(id).map->synced()) << "node " << id;
    EXPECT_EQ(c.node(id).map->contents(), ref) << "node " << id << " diverged";
  }
  // A fresh write after the merge reaches everyone.
  c.node(2).map->put("post", "merge");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_TRUE(c.node(id).map->get("post").has_value()) << "node " << id;
    EXPECT_EQ(*c.node(id).map->get("post"), "merge");
  }
}

TEST(LockManagerTest, SplitBrainMergeReconvergesLockTables) {
  // During the split each half grants the same lock locally (unavoidable
  // under strategy 2); the post-merge epoch must serialise the two owners
  // into one queue that every replica agrees on, and releases must drain it.
  DataCluster c({1, 2, 3, 4});
  c.bootstrap();
  c.net().partition({{1, 2}, {3, 4}});
  c.run(seconds(2));
  int grants_left = 0, grants_right = 0;
  c.node(1).locks->acquire("L", [&](const std::string&) { ++grants_left; });
  c.node(3).locks->acquire("L", [&](const std::string&) { ++grants_right; });
  c.run(seconds(1));
  EXPECT_EQ(grants_left, 1);
  EXPECT_EQ(grants_right, 1);
  c.net().heal_partition();
  c.run(seconds(8));
  // All replicas agree on a single owner, with the other side queued.
  auto owner = c.node(1).locks->owner("L");
  ASSERT_TRUE(owner.has_value());
  for (NodeId id : c.ids()) {
    ASSERT_TRUE(c.node(id).locks->owner("L").has_value()) << "node " << id;
    EXPECT_EQ(*c.node(id).locks->owner("L"), *owner) << "node " << id;
    EXPECT_EQ(c.node(id).locks->waiters("L"), 1u) << "node " << id;
  }
  // Drain: the owner releases, the queued side is promoted, then releases.
  NodeId other = *owner == 1 ? 3 : 1;
  c.node(*owner).locks->release("L");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_TRUE(c.node(id).locks->owner("L").has_value()) << "node " << id;
    EXPECT_EQ(*c.node(id).locks->owner("L"), other) << "node " << id;
  }
  c.node(other).locks->release("L");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.node(id).locks->owner("L").has_value()) << "node " << id;
  }
}

TEST(LockManagerTest, FastRestartThatReadoptsTheLiveTokenResyncsTheEpoch) {
  // Regression: node 4 crash-restarts faster than the failure-detection
  // bound (3 x 50 ms), founds a singleton (lock epoch {4}), then adopts the
  // group's live token, which never stopped listing it. No other member saw
  // a view change, so nobody re-announced the lock epoch: node 4 dropped
  // every other node's acquire as a dead origin and granted itself a lock
  // another node held.
  DataCluster c({1, 2, 3, 4});
  c.bootstrap();
  ASSERT_EQ(c.node(1).session->view().members.size(), 4u);
  c.net().set_node_up(4, false);
  c.node(4).session->stop();
  c.run(millis(40));
  c.net().set_node_up(4, true);
  c.node(4).session->found();
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.node(id).session->view().members.size(), 4u) << "node " << id;
  }

  // Contended acquires from every member; each holder releases 50 ms later.
  int holders = 0, max_holders = 0, grants = 0;
  for (NodeId id : c.ids()) {
    c.node(id).locks->acquire("L", [&, id](const std::string&) {
      ++grants;
      max_holders = std::max(max_holders, ++holders);
      c.node(id).session->env().schedule(millis(50), [&, id] {
        --holders;
        c.node(id).locks->release("L");
      });
    });
  }
  c.run(seconds(3));
  EXPECT_EQ(max_holders, 1) << "two nodes held L at once";
  EXPECT_EQ(grants, 4);
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.node(id).locks->owner("L").has_value()) << "node " << id;
  }
}

TEST(LockManagerTest, EpochResurrectingAReleasedRequestIsHealedById) {
  // Regression: the lowest member serialises its epoch table when it adopts
  // a view change, before it applies the ops already riding the token that
  // brought the change. Here those ops are node A's release of r1 and its
  // acquire of r2, so every replica adopts {A:r1} after applying both: r1
  // is resurrected and r2 lost. The old self-heal compared counts (one of
  // ours adopted, one outstanding) and released nothing; A's later release
  // of r2 then removed r1, and the stale r2 entry blocked the lock forever.
  DataCluster c({1, 2, 3});
  c.bootstrap();
  const std::vector<NodeId> ring = c.node(1).session->view().members;
  ASSERT_EQ(ring.size(), 3u);
  ASSERT_EQ(ring[0], 1u);
  const NodeId a = ring[1];       // visits right after node 1
  const NodeId leaver = ring[2];  // leaves on the visit after A's

  bool a_granted = false;
  c.node(a).locks->acquire("L", [&](const std::string&) { a_granted = true; });
  c.run(seconds(1));
  ASSERT_TRUE(a_granted);

  // With node 1 holding the token: A releases r1 and acquires r2 (both
  // ride A's next visit), and the leaver departs on the visit after it, so
  // node 1 adopts the shrunken view on the arrival that carries A's ops.
  for (int i = 0; i < 10000 && !c.node(1).session->holds_token(); ++i) {
    c.run(micros(100));
  }
  ASSERT_TRUE(c.node(1).session->holds_token());
  c.node(a).locks->release("L");
  c.node(a).locks->acquire("L");
  c.node(leaver).session->leave();
  c.run(seconds(1));
  ASSERT_EQ(c.node(1).session->view().members.size(), 2u);

  c.node(a).locks->release("L");
  bool one_granted = false;
  c.node(1).locks->acquire("L", [&](const std::string&) { one_granted = true; });
  c.run(seconds(2));
  EXPECT_TRUE(one_granted) << "a released request still heads the queue";
  for (NodeId id : {NodeId{1}, a}) {
    ASSERT_TRUE(c.node(id).locks->owner("L").has_value()) << "node " << id;
    EXPECT_EQ(*c.node(id).locks->owner("L"), 1u) << "node " << id;
    EXPECT_EQ(c.node(id).locks->waiters("L"), 0u) << "node " << id;
  }
}

TEST(LockManagerTest, ManyLocksIndependent) {
  DataCluster c({1, 2, 3});
  c.bootstrap();
  for (int i = 0; i < 10; ++i) {
    c.node(1 + (i % 3)).locks->acquire("lock-" + std::to_string(i));
  }
  c.run(seconds(2));
  for (int i = 0; i < 10; ++i) {
    NodeId expect = 1 + (i % 3);
    ASSERT_TRUE(c.node(1).locks->owner("lock-" + std::to_string(i)).has_value());
    EXPECT_EQ(*c.node(1).locks->owner("lock-" + std::to_string(i)), expect);
  }
}

}  // namespace
}  // namespace raincore
