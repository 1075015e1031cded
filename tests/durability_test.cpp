// Durable data plane: persist/recover across process lifetimes, rejoin
// reconciliation (no resurrection of deleted entries), full-cluster restart
// recovery, and the seeded restart-storm sweep with the durability oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/shard_router.h"
#include "testing/cluster.h"
#include "testing/durability_chaos.h"

namespace raincore {
namespace {

namespace fs = std::filesystem;
using testing::Cluster;
using testing::DurabilityRoundResult;
using testing::run_durability_round;

constexpr data::Channel kMapChannel = 1;
constexpr data::Channel kLockChannel = 2;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("raincore-dur-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

/// `shards` durable rings per node under `root`, fsynced every 2 records
/// and compacted every 64 (the chaos harness owns the storm case).
Cluster::Plane durable(const std::string& root, std::size_t shards) {
  Cluster::Plane plane;
  plane.shards = shards;
  plane.storage.dir = root;
  plane.storage.fsync_every = 2;
  plane.storage.snapshot_every = 64;
  return plane;
}

/// A sharded map and lock manager on one node's plane; they outlive the
/// node's crashes and restarts.
struct Services {
  explicit Services(data::ShardedDataPlane& plane)
      : map(plane, kMapChannel), locks(plane, kLockChannel) {}
  data::ShardedMap map;
  data::ShardedLockManager locks;
};
using ServiceMap = std::map<NodeId, std::unique_ptr<Services>>;

ServiceMap services_on(Cluster& c) {
  ServiceMap out;
  for (NodeId id : c.ids()) out[id] = std::make_unique<Services>(c.plane(id));
  return out;
}

/// Every ring of every node in `live` holds exactly `live`, and every
/// live map replica is synced.
::testing::AssertionResult converged(Cluster& c, const ServiceMap& s,
                                     const std::vector<NodeId>& live) {
  const bool ok = testing::run_until(c.net().loop(), millis(8000), [&] {
    if (!c.converged(live)) return false;
    for (NodeId id : live) {
      if (!s.at(id)->map.synced()) return false;
    }
    return true;
  });
  if (ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "cluster did not converge";
}

TEST_F(DurabilityTest, SingleNodePersistsAcrossFullTeardown) {
  const std::string root = root_.string();
  {
    Cluster c({1}, durable(root, 2));
    auto s = services_on(c);
    ASSERT_TRUE(c.found_all());
    ASSERT_TRUE(converged(c, s, {1}));
    for (int i = 0; i < 40; ++i) {
      s.at(1)->map.put("key" + std::to_string(i), "val" + std::to_string(i));
    }
    s.at(1)->map.erase("key7");
    c.run(millis(500));
    EXPECT_EQ(s.at(1)->map.size(), 39u);
    for (NodeId id : c.ids()) c.plane(id).flush_storage();
  }
  // A brand-new process over the same directory: everything must come back
  // from snapshot+WAL alone, including the deletion.
  Cluster c({1}, durable(root, 2));
  auto s = services_on(c);
  // Recovery loads the SHADOW; adoption happens when the founding
  // singleton's first view forms, so recovery must run before found().
  ASSERT_TRUE(c.found_all());
  ASSERT_TRUE(converged(c, s, {1}));
  c.run(millis(300));
  EXPECT_EQ(s.at(1)->map.size(), 39u);
  EXPECT_EQ(s.at(1)->map.get("key3"), std::optional<std::string>("val3"));
  EXPECT_FALSE(s.at(1)->map.contains("key7"));
  // The state genuinely travelled through the log/snapshot files.
  const auto snap = c.plane(1).storage_snapshot();
  std::uint64_t replayed = 0, loads = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name.find("storage.wal.replayed") != std::string::npos) replayed += v;
    if (name.find("storage.snapshot.loads") != std::string::npos) loads += v;
  }
  EXPECT_GT(replayed + loads, 0u);
}

TEST_F(DurabilityTest, RestartedNodeDoesNotResurrectEntriesDeletedWhileDown) {
  // The forget_peer/rejoin regression: node 1 crashes holding durable
  // entries; the survivors delete some of them; node 1 restarts with its
  // stale incarnation plus recovered state and rejoins. The deleted keys
  // must stay deleted (the survivors' tombstones outrank the shadow), the
  // untouched keys must survive, and a key only node 1 knew must be
  // re-proposed back into the group.
  Cluster c({1, 2, 3}, durable(root_.string(), 2));
  auto s = services_on(c);
  ASSERT_TRUE(c.found_all());
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));

  s.at(1)->map.put("shared-a", "1");
  s.at(1)->map.put("shared-b", "1");
  c.run(millis(500));
  ASSERT_TRUE(s.at(3)->map.contains("shared-b"));
  c.plane(1).flush_storage();

  // While node 1 is dark, the group moves on: one of its keys is deleted,
  // another is overwritten.
  c.crash(1);
  ASSERT_TRUE(converged(c, s, {2, 3}));
  s.at(2)->map.erase("shared-a");
  s.at(2)->map.put("shared-b", "2");
  c.run(millis(500));

  c.restart(1);
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));
  c.run(millis(800));  // reconcile + any re-proposals circulate

  for (NodeId id : {1, 2, 3}) {
    const auto& m = s.at(id)->map;
    EXPECT_FALSE(m.contains("shared-a"))
        << "node " << id << " resurrected a key deleted while node 1 was down";
    EXPECT_EQ(m.get("shared-b"), std::optional<std::string>("2"))
        << "node " << id << " rolled back to node 1's stale value";
  }
}

TEST_F(DurabilityTest, RecoveredOnlyKeysAreReproposedOnRejoin) {
  // Keys that reached node 1's log but never any surviving replica (e.g.
  // every other replica of that shard was since wiped) must be re-proposed
  // by the recovering node so the group regains them.
  Cluster c({1, 2}, durable(root_.string(), 1));
  auto s = services_on(c);
  ASSERT_TRUE(c.found_all());
  ASSERT_TRUE(converged(c, s, {1, 2}));
  s.at(1)->map.put("precious", "p1");
  c.run(millis(500));
  c.plane(1).flush_storage();
  c.crash(1);
  ASSERT_TRUE(converged(c, s, {2}));
  // Node 2 loses its replica wholesale: crash + wiped directory = a fresh
  // incarnation with empty state (it was never durable there).
  c.crash(2);
  fs::remove_all(root_ / "node2");
  c.restart(2);
  ASSERT_TRUE(converged(c, s, {2}));
  EXPECT_FALSE(s.at(2)->map.contains("precious"));

  c.restart(1);
  ASSERT_TRUE(converged(c, s, {1, 2}));
  c.run(millis(800));
  for (NodeId id : {1, 2}) {
    EXPECT_EQ(s.at(id)->map.get("precious"),
              std::optional<std::string>("p1"))
        << "node " << id << " missing the re-proposed recovered key";
  }
  // The heal is visible in the instruments.
  EXPECT_GT(s.at(1)->map.shard(0).metrics().snapshot().counters.at(
                "data.map.reproposed"),
            0u);
}

TEST_F(DurabilityTest, FullClusterRestartRecoversTheUnionFromDiskAlone) {
  Cluster c({1, 2, 3}, durable(root_.string(), 2));
  auto s = services_on(c);
  ASSERT_TRUE(c.found_all());
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));
  for (NodeId id : {1, 2, 3}) {
    for (int i = 0; i < 8; ++i) {
      s.at(id)->map.put(
          "n" + std::to_string(id) + ":k" + std::to_string(i), "v");
    }
  }
  c.run(millis(600));
  s.at(1)->map.erase("n2:k0");  // a deletion that must hold
  c.run(millis(400));
  ASSERT_EQ(s.at(3)->map.size(), 23u);
  for (NodeId id : {1, 2, 3}) c.plane(id).flush_storage();

  // Lights out everywhere at once: no surviving replica to sync from.
  for (NodeId id : {1, 2, 3}) c.crash(id);
  c.run(millis(200));
  for (NodeId id : {1, 2, 3}) c.restart(id);
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));
  c.run(millis(1000));

  for (NodeId id : {1, 2, 3}) {
    const auto& m = s.at(id)->map;
    EXPECT_EQ(m.size(), 23u) << "node " << id;
    EXPECT_TRUE(m.contains("n1:k5")) << "node " << id;
    EXPECT_TRUE(m.contains("n3:k7")) << "node " << id;
    EXPECT_FALSE(m.contains("n2:k0"))
        << "node " << id << " resurrected a durably-deleted key";
  }
  // Cross-check: the state came through the WAL (every node replayed).
  for (NodeId id : {1, 2, 3}) {
    const auto snap = c.plane(id).storage_snapshot();
    std::uint64_t replayed = 0;
    for (const auto& [name, v] : snap.counters) {
      if (name.find("storage.wal.replayed") != std::string::npos) {
        replayed += v;
      }
    }
    EXPECT_GT(replayed, 0u) << "node " << id << " recovered nothing";
  }
}

TEST_F(DurabilityTest, LockRecoveryReleasesOwnershipOfTheDeadIncarnation) {
  // Lock ownership is session state: it dies with the incarnation that held
  // it. Recovery restores the replicated table (and the request-id counter,
  // so ids are never reused), then the epoch self-heal notices the adopted
  // entry belongs to a holder with no live outstanding request — the dead
  // incarnation — and releases it through the agreed stream. The lock must
  // come back FREE, not leaked to a ghost, and be re-acquirable.
  Cluster c({1}, durable(root_.string(), 1));
  auto s = services_on(c);
  ASSERT_TRUE(c.found_all());
  ASSERT_TRUE(converged(c, s, {1}));
  bool granted = false;
  s.at(1)->locks.acquire("the-lock",
                               [&granted](const std::string&) { granted = true; });
  c.run(millis(500));
  ASSERT_TRUE(granted);
  c.plane(1).flush_storage();
  c.crash(1);
  c.restart(1);
  ASSERT_TRUE(converged(c, s, {1}));
  c.run(millis(500));
  EXPECT_EQ(s.at(1)->locks.owner("the-lock"), std::nullopt)
      << "stale ownership from the dead incarnation leaked across restart";
  // ...and the recovered table did not wedge the lock: a fresh acquire by
  // the new incarnation is granted.
  bool regranted = false;
  s.at(1)->locks.acquire(
      "the-lock", [&regranted](const std::string&) { regranted = true; });
  c.run(millis(500));
  EXPECT_TRUE(regranted);
}

// --- restart-storm sweep -----------------------------------------------------

void run_sweep(std::uint64_t first_seed, std::uint64_t last_seed,
               const std::string& root) {
  std::set<testing::FaultClass> classes;
  std::uint64_t total_acked = 0;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const std::string dir = root + "/seed" + std::to_string(seed);
    DurabilityRoundResult res = run_durability_round(seed, dir);
    EXPECT_TRUE(res.violations.empty())
        << "seed " << seed << ":\n" << res.report;
    EXPECT_EQ(res.acked_lost, 0u) << "seed " << seed << " lost acked writes";
    EXPECT_EQ(res.phantom_resurrections, 0u)
        << "seed " << seed << " resurrected deleted keys";
    total_acked += res.acked_ops;
    classes.insert(res.classes.begin(), res.classes.end());
    fs::remove_all(dir);
  }
  // The storm must actually have stormed: writes were acknowledged under
  // fire and both restart fault classes fired somewhere in the sweep.
  EXPECT_GT(total_acked, 0u);
  EXPECT_TRUE(classes.count(testing::FaultClass::kShardRestart))
      << "no shard restart fired across the sweep";
  EXPECT_TRUE(classes.count(testing::FaultClass::kClusterRestart))
      << "no cluster restart fired across the sweep";
}

// A shard down cluster-wide (Cluster::crash_shard) stays down through node
// restarts until Cluster::restart_shard brings it back everywhere at once.
class ClusterShards : public DurabilityTest {};

/// Ring 0 of every node in `ids` holds exactly `ids`.
bool ring0_holds(Cluster& c, const std::vector<NodeId>& ids) {
  for (NodeId id : ids) {
    if (c.plane(id).ring(0).view().members.size() != ids.size()) return false;
  }
  return true;
}

TEST_F(ClusterShards, NodeRestartKeepsAShardDownEverywhereDown) {
  Cluster c({1, 2, 3}, durable(root_.string(), 2));
  auto s = services_on(c);
  ASSERT_TRUE(c.found_all());
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));

  c.crash_shard(1);
  EXPECT_TRUE(c.shard_down(1));
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.plane(id).ring(1).started()) << "node " << id;
    EXPECT_FALSE(c.plane(id).store(1)->is_open()) << "node " << id;
    EXPECT_TRUE(c.plane(id).ring(0).started()) << "node " << id;
  }
  c.crash(3);
  c.run(millis(300));
  ASSERT_TRUE(c.restart(3));
  EXPECT_TRUE(c.up(3));
  EXPECT_TRUE(c.mux(3).enabled());
  EXPECT_TRUE(c.plane(3).store(0)->is_open());
  EXPECT_FALSE(c.plane(3).ring(1).started());
  EXPECT_FALSE(c.plane(3).store(1)->is_open());
  ASSERT_TRUE(testing::run_until(c.net().loop(), millis(8000),
                                 [&] { return ring0_holds(c, c.ids()); }))
      << "node 3 never rejoined ring 0";
  for (NodeId id : c.ids()) {
    EXPECT_FALSE(c.plane(id).ring(1).started()) << "node " << id;
  }

  // With every shard down, a restarted node founds no ring, yet its
  // transport is on.
  c.crash_shard(0);
  c.crash(3);
  ASSERT_TRUE(c.restart(3));
  EXPECT_FALSE(c.plane(3).ring(0).started());
  EXPECT_FALSE(c.plane(3).ring(1).started());
  EXPECT_TRUE(c.mux(3).enabled());
}

TEST_F(ClusterShards, RestartShardFoundsItOnEveryUpNodeAndConverges) {
  Cluster c({1, 2, 3}, durable(root_.string(), 2));
  auto s = services_on(c);
  ASSERT_TRUE(c.found_all());
  std::vector<NodeId> recovered;
  c.set_recover_handler([&](NodeId id) { recovered.push_back(id); });
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));
  const std::size_t kKeys = 20;
  for (std::size_t i = 0; i < kKeys; ++i) {
    s.at(1)->map.put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(testing::run_until(c.net().loop(), millis(4000), [&] {
    for (NodeId id : c.ids()) {
      if (s.at(id)->map.size() != kKeys) return false;
    }
    return true;
  }));
  for (NodeId id : c.ids()) c.plane(id).flush_storage();

  c.crash(3);
  c.crash_shard(1);
  c.run(millis(300));
  c.restart_shard(1);
  EXPECT_FALSE(c.shard_down(1));
  EXPECT_EQ(recovered, (std::vector<NodeId>{1, 2})) << "up nodes only";
  for (NodeId id : {1u, 2u}) {
    EXPECT_TRUE(c.plane(id).ring(1).started()) << "node " << id;
    EXPECT_TRUE(c.plane(id).store(1)->is_open()) << "node " << id;
  }
  EXPECT_FALSE(c.plane(3).ring(1).started());
  ASSERT_TRUE(converged(c, s, {1, 2}));

  ASSERT_TRUE(c.restart(3));
  EXPECT_TRUE(c.plane(3).ring(1).started());
  ASSERT_TRUE(converged(c, s, {1, 2, 3}));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(s.at(id)->map.size(), kKeys) << "node " << id;
  }
}

TEST_F(DurabilityTest, RestartStormSweepSeeds1To12) {
  run_sweep(1, 12, root_.string());
}

TEST_F(DurabilityTest, RestartStormSweepSeeds13To25) {
  run_sweep(13, 25, root_.string());
}

TEST_F(DurabilityTest, SameSeedSameOutcome) {
  // The fault schedule, every oracle outcome and the merged metrics must be
  // identical run-to-run.
  const std::string d1 = (root_ / "a").string();
  const std::string d2 = (root_ / "b").string();
  DurabilityRoundResult r1 = run_durability_round(7, d1);
  DurabilityRoundResult r2 = run_durability_round(7, d2);
  EXPECT_EQ(r1.schedule, r2.schedule);
  EXPECT_EQ(r1.faults, r2.faults);
  EXPECT_EQ(r1.violations, r2.violations);
  EXPECT_EQ(r1.acked_ops, r2.acked_ops);
  EXPECT_EQ(r1.voided_ops, r2.voided_ops);
  EXPECT_EQ(r1.acked_lost, r2.acked_lost);
  EXPECT_EQ(r1.phantom_resurrections, r2.phantom_resurrections);
  EXPECT_EQ(r1.metrics, r2.metrics);
}

}  // namespace
}  // namespace raincore
