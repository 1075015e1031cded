// Sharded data plane over the multi-session runtime: ShardRouter hashing,
// K rings on one shared transport (SessionMux), sharded map/lock facades,
// failure fan-out (one detection, N membership updates), and the multi-ring
// chaos sweep with per-ring and cross-ring invariant checks.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "data/shard_router.h"
#include "testing/chaos.h"
#include "testing/cluster.h"

namespace raincore {
namespace {

using data::ShardedDataPlane;
using data::ShardedLockManager;
using data::ShardedMap;
using data::ShardRouter;
using testing::Cluster;
using testing::run_until;

// --- ShardRouter ------------------------------------------------------------

TEST(ShardRouterTest, DeterministicAcrossInstances) {
  ShardRouter a(4), b(4);
  for (int i = 0; i < 500; ++i) {
    std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.shard_of(key), b.shard_of(key)) << key;
  }
}

TEST(ShardRouterTest, CoversAllShardsRoughlyEvenly) {
  ShardRouter r(4);
  std::vector<int> hits(4, 0);
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    std::size_t s = r.shard_of("object/" + std::to_string(i));
    ASSERT_LT(s, 4u);
    ++hits[s];
  }
  for (int s = 0; s < 4; ++s) {
    // Consistent hashing with 128 virtual points per shard: every shard
    // gets a substantial cut, none dominates.
    EXPECT_GT(hits[s], kKeys / 16) << "shard " << s << " starved";
    EXPECT_LT(hits[s], kKeys / 2) << "shard " << s << " dominates";
  }
}

TEST(ShardRouterTest, SingleShardTakesEverything) {
  ShardRouter r(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.shard_of("k" + std::to_string(i)), 0u);
  }
}

TEST(ShardRouterTest, GrowingShardCountMovesOnlyAFraction) {
  // The point of consistent hashing: adding a shard must not reshuffle the
  // world. Going 4 -> 5 should move roughly 1/5 of the keys, not most.
  ShardRouter four(4), five(5);
  const int kKeys = 2000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "stable-" + std::to_string(i);
    if (four.shard_of(key) != five.shard_of(key)) ++moved;
  }
  EXPECT_LT(moved, kKeys / 2) << "consistent hashing remapped " << moved
                              << "/" << kKeys << " keys";
  EXPECT_GT(moved, 0) << "new shard received nothing";
}

// --- N nodes x K shards on one shared transport per node --------------------

constexpr data::Channel kMapChannel = 1;
constexpr data::Channel kLockChannel = 2;

/// A sharded map and lock manager on one node's plane.
struct Services {
  explicit Services(ShardedDataPlane& plane)
      : map(plane, kMapChannel), locks(plane, kLockChannel) {}
  ShardedMap map;
  ShardedLockManager locks;
};

std::map<NodeId, std::unique_ptr<Services>> services_on(Cluster& c) {
  std::map<NodeId, std::unique_ptr<Services>> out;
  for (NodeId id : c.ids()) out[id] = std::make_unique<Services>(c.plane(id));
  return out;
}

/// Every node founds every shard ring; true once all of them converge.
bool converge(Cluster& c) {
  c.found_all();
  return c.run_until_converged(c.ids(), seconds(20));
}

TEST(ShardedPlaneTest, RingsConvergeAndInstrumentsAreDistinct) {
  Cluster c({1, 2, 3, 4}, Cluster::Plane{3});
  ASSERT_TRUE(converge(c));
  for (NodeId id : c.ids()) {
    auto& mux = c.mux(id);
    EXPECT_EQ(mux.ring_count(), 3u);
    const auto snap = mux.metrics_snapshot();
    // Every shard ring registers its session instruments under its own
    // prefix, and the shared transport's state appears exactly once.
    for (const char* prefix : {"shard0.", "shard1.", "shard2."}) {
      std::string name = std::string(prefix) + "session.token.received";
      EXPECT_TRUE(snap.counters.count(name)) << "missing " << name;
    }
    EXPECT_EQ(snap.counters.count("transport.rtt_samples"), 1u);
    EXPECT_EQ(snap.counters.count("shard0.transport.rtt_samples"), 0u);
  }
}

TEST(ShardedMapTest, KeysRouteByHashAndReplicasConverge) {
  Cluster c({1, 2, 3, 4}, Cluster::Plane{3});
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c));

  const int kKeys = 30;
  for (int i = 0; i < kKeys; ++i) {
    NodeId writer = c.ids()[static_cast<std::size_t>(i) % c.ids().size()];
    svc.at(writer)->map.put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  auto settled = [&] {
    for (NodeId id : c.ids()) {
      auto& m = svc.at(id)->map;
      if (!m.synced() || m.size() != static_cast<std::size_t>(kKeys)) {
        return false;
      }
    }
    return true;
  };
  run_until(c.net().loop(), seconds(10), settled);
  ASSERT_TRUE(settled());

  const ShardRouter& router = c.plane(1).router();
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "k" + std::to_string(i);
    std::size_t home = router.shard_of(key);
    for (NodeId id : c.ids()) {
      auto& m = svc.at(id)->map;
      auto v = m.get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " missing " << key;
      EXPECT_EQ(*v, "v" + std::to_string(i));
      // The key lives on its hash-designated partition and nowhere else.
      for (std::size_t s = 0; s < m.shard_count(); ++s) {
        EXPECT_EQ(m.shard(s).contains(key), s == home)
            << "node " << id << " key " << key << " shard " << s;
      }
    }
  }
}

TEST(ShardedLockManagerTest, ExclusionPerLockAndParallelismAcrossShards) {
  Cluster c({1, 2, 3}, Cluster::Plane{3});
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c));

  // Mutual exclusion on one name: every node acquires, each granted exactly
  // once, never two holders at once.
  auto depth = std::make_shared<int>(0);
  std::map<NodeId, int> grants;
  const std::string contested = "contested-lock";
  for (NodeId id : c.ids()) {
    svc.at(id)->locks.acquire(
        contested, [&, id, depth](const std::string&) {
          EXPECT_EQ(++*depth, 1) << "two holders of " << contested;
          ++grants[id];
          c.net().loop().schedule(millis(2), [&, id, depth] {
            --*depth;
            svc.at(id)->locks.release(contested);
          });
        });
  }
  auto all_granted = [&] {
    for (NodeId id : c.ids()) {
      if (grants[id] != 1) return false;
    }
    return true;
  };
  run_until(c.net().loop(), seconds(10), all_granted);
  EXPECT_TRUE(all_granted());

  // Locks homed on different shards are independent: two nodes can hold
  // them simultaneously.
  std::string la, lb;
  const ShardRouter& router = c.plane(1).router();
  for (int i = 0; la.empty() || lb.empty(); ++i) {
    std::string name = "lk" + std::to_string(i);
    if (la.empty() && router.shard_of(name) == 0) la = name;
    else if (lb.empty() && router.shard_of(name) == 1) lb = name;
    ASSERT_LT(i, 1000);
  }
  bool held_a = false, held_b = false;
  svc.at(1)->locks.acquire(la, [&](const std::string&) { held_a = true; });
  svc.at(2)->locks.acquire(lb, [&](const std::string&) { held_b = true; });
  run_until(c.net().loop(), seconds(5), [&] { return held_a && held_b; });
  EXPECT_TRUE(held_a && held_b);
  EXPECT_TRUE(svc.at(1)->locks.held_by_me(la));
  EXPECT_TRUE(svc.at(2)->locks.held_by_me(lb));
}

// --- Failure fan-out: one detection, K membership updates -------------------

TEST(MultiRingFailureTest, NodeCrashRemovesItFromEveryRing) {
  Cluster c({1, 2, 3, 4}, Cluster::Plane{3});
  ASSERT_TRUE(converge(c));

  // Node-level crash: the whole mux (all rings + shared transport) dies.
  c.crash(4);

  std::vector<NodeId> survivors{1, 2, 3};
  auto all_removed = [&] {
    for (NodeId id : survivors) {
      auto& plane = c.plane(id);
      for (std::size_t s = 0; s < plane.shard_count(); ++s) {
        const auto& m = plane.ring(s).view().members;
        if (m.size() != 3 || plane.ring(s).view().has(4)) return false;
      }
    }
    return true;
  };
  run_until(c.net().loop(), seconds(30), all_removed);
  EXPECT_TRUE(all_removed())
      << "some ring still believes node 4 is a member";

  // The suspicion fan-out must have carried at least part of the load:
  // across the cluster, some removals happened on the stamp from another
  // ring's failed transfer instead of a ring-local detection.
  std::uint64_t fanned = 0;
  for (NodeId id : survivors) {
    const auto snap = c.mux(id).metrics_snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name.find("session.suspect_removals") != std::string::npos) {
        fanned += value;
      }
    }
  }
  EXPECT_GE(fanned, 1u) << "no ring used the shared-detector fan-out";
}

// --- Multi-ring chaos sweep (acceptance) ------------------------------------

class MultiRingChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiRingChaosSweep, InvariantsHoldAcrossRings) {
  testing::ChaosRoundResult res =
      testing::run_multi_ring_round(GetParam(), millis(3000), 4, 3);
  EXPECT_GT(res.faults, 0u) << "no faults injected:\n" << res.schedule;
  for (const std::string& v : res.violations) {
    ADD_FAILURE() << v << "\nreplay:\n" << res.schedule;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiRingChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- Determinism: 4-node x 3-shard sim replays bit-identically --------------

TEST(MultiRingDeterminism, SameSeedSameScheduleAndMetrics) {
  testing::ChaosRoundResult a =
      testing::run_multi_ring_round(13, millis(1500), 4, 3);
  testing::ChaosRoundResult b =
      testing::run_multi_ring_round(13, millis(1500), 4, 3);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_FALSE(a.metrics.empty());
}

}  // namespace
}  // namespace raincore
