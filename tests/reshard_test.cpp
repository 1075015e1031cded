// Elastic resharding (DESIGN.md §5j): VersionedRouter minimal-remap and
// epoch-table-equivalence properties, plus live 2->4 migrations on a sim
// cluster — keys and locks served throughout, every range handed off whole,
// filters retired on completion, and a durable node restarting into the
// grown epoch.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "data/reshard.h"
#include "testing/cluster.h"
#include "testing/durability_chaos.h"

namespace raincore {
namespace {

using data::RangeId;
using data::RangeState;
using data::ReshardManager;
using data::ShardedDataPlane;
using data::ShardedLockManager;
using data::ShardedMap;
using data::ShardRouter;
using data::VersionedRouter;
using testing::Cluster;

// --- VersionedRouter properties ---------------------------------------------

TEST(VersionedRouterTest, GrowByOneRemapsAboutOneOverKPlusOne) {
  // Consistent hashing's contract: going K -> K+1 moves ~1/(K+1) of the
  // keyspace, and every moved key lands on the NEW shard (a K->K+1 grow
  // never shuffles keys between existing shards).
  for (std::size_t k : {2u, 4u, 8u}) {
    ShardRouter oldr(k), newr(k + 1);
    const int kKeys = 4000;
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
      std::string key = "prop-" + std::to_string(i);
      const std::size_t a = oldr.shard_of(key);
      const std::size_t b = newr.shard_of(key);
      if (a != b) {
        ++moved;
        EXPECT_EQ(b, k) << "grow moved " << key << " between OLD shards";
      }
    }
    const double frac = static_cast<double>(moved) / kKeys;
    const double ideal = 1.0 / (k + 1);
    EXPECT_GT(frac, ideal / 3) << "K=" << k << " new shard starved";
    EXPECT_LT(frac, ideal * 3) << "K=" << k << " remapped too much";
  }
}

TEST(VersionedRouterTest, MovedRangesCoverExactlyTheRemappedKeys) {
  ShardRouter oldr(4), newr(6);
  const auto ranges = VersionedRouter::moved_ranges(oldr, newr);
  EXPECT_FALSE(ranges.empty());
  std::set<RangeId> set(ranges.begin(), ranges.end());
  for (int i = 0; i < 4000; ++i) {
    std::string key = "cover-" + std::to_string(i);
    const auto a = static_cast<std::uint32_t>(oldr.shard_of(key));
    const auto b = static_cast<std::uint32_t>(newr.shard_of(key));
    if (a != b) {
      EXPECT_TRUE(set.count(RangeId{a, b}))
          << key << " moved " << a << "->" << b << " outside every range";
    }
  }
}

TEST(VersionedRouterTest, EpochTableEquivalence) {
  // Before any range freezes, route_write is the OLD table verbatim; once
  // every range is done (and after complete()), it is the NEW table
  // verbatim. The window only ever interpolates between the two epochs.
  VersionedRouter vr(3);
  ShardRouter oldr(3), newr(5);
  vr.begin(5, 1);
  ASSERT_TRUE(vr.migrating());
  for (int i = 0; i < 2000; ++i) {
    std::string key = "eq-" + std::to_string(i);
    EXPECT_EQ(vr.route_write(key), oldr.shard_of(key));
  }
  for (const auto& [r, st] : vr.ranges()) {
    vr.set_state(r, RangeState::kDone);
  }
  for (int i = 0; i < 2000; ++i) {
    std::string key = "eq-" + std::to_string(i);
    EXPECT_EQ(vr.route_write(key), newr.shard_of(key));
  }
  EXPECT_TRUE(vr.all_done());
  vr.complete();
  EXPECT_FALSE(vr.migrating());
  for (int i = 0; i < 2000; ++i) {
    std::string key = "eq-" + std::to_string(i);
    EXPECT_EQ(vr.route_write(key), newr.shard_of(key));
    EXPECT_EQ(vr.route_read(key).primary, newr.shard_of(key));
    EXPECT_FALSE(vr.route_read(key).fallback.has_value());
  }
}

TEST(VersionedRouterTest, ReadRouteFallsBackToOldOwnerDuringWindow) {
  VersionedRouter vr(2);
  vr.begin(4, 7);
  ShardRouter oldr(2), newr(4);
  bool saw_moved = false;
  for (int i = 0; i < 500; ++i) {
    std::string key = "rr-" + std::to_string(i);
    const auto rr = vr.route_read(key);
    if (oldr.shard_of(key) == newr.shard_of(key)) continue;
    saw_moved = true;
    // In flight: destination first, old owner as bounded-redirect fallback.
    EXPECT_EQ(rr.primary, newr.shard_of(key));
    ASSERT_TRUE(rr.fallback.has_value());
    EXPECT_EQ(*rr.fallback, oldr.shard_of(key));
  }
  EXPECT_TRUE(saw_moved);
}

// --- Live migrations on a sim cluster ---------------------------------------

constexpr data::Channel kMapChannel = 1;
constexpr data::Channel kLockChannel = 2;

/// `shards` rings per node, durable under `root` when it is set.
Cluster::Plane plane(std::size_t shards, const std::string& root = {}) {
  Cluster::Plane p;
  p.shards = shards;
  p.storage.dir = root;
  return p;
}

/// A sharded map, lock manager and reshard manager (deployed at 2 shards)
/// on one node's plane.
struct Services {
  explicit Services(ShardedDataPlane& plane)
      : map(plane, kMapChannel),
        locks(plane, kLockChannel),
        mgr(plane, map, locks, /*initial_shards=*/2) {}
  ShardedMap map;
  ShardedLockManager locks;
  ReshardManager mgr;
};
using ServiceMap = std::map<NodeId, std::unique_ptr<Services>>;

/// The services of every node; a recovering node rebuilds its migration
/// window from its journals before its rings found.
ServiceMap services_on(Cluster& c) {
  ServiceMap out;
  for (NodeId id : c.ids()) out[id] = std::make_unique<Services>(c.plane(id));
  c.set_recover_handler(
      [&svc = out](NodeId id) { svc.at(id)->mgr.after_recovery(); });
  return out;
}

/// Runs the sim, ticking every reshard manager after each 10 ms step,
/// until pred or timeout.
template <typename Pred>
bool run_until(Cluster& c, ServiceMap& svc, Pred pred,
               Time timeout = seconds(30)) {
  const Time deadline = c.net().now() + timeout;
  while (c.net().now() < deadline) {
    if (pred()) return true;
    c.run(millis(10));
    for (auto& [id, s] : svc) s->mgr.tick();
  }
  return pred();
}

/// Every node founds every ring; true once all of them converge.
bool converge(Cluster& c, ServiceMap& svc) {
  return c.found_all() &&
         run_until(c, svc, [&] { return c.converged(c.ids()); }, seconds(20));
}

bool resize_settled(Cluster& c, ServiceMap& svc, std::size_t new_k,
                    std::uint64_t epoch) {
  for (auto& [id, st] : svc) {
    if (st->mgr.migrating() || st->mgr.epoch() != epoch) return false;
    if (c.plane(id).shard_count() != new_k) return false;
    if (!c.plane(id).all_converged(c.ids().size())) return false;
    if (!st->map.synced()) return false;
  }
  return true;
}

TEST(ReshardLiveTest, ResizeMovesEveryKeyToItsNewHome) {
  Cluster c({1, 2, 3}, plane(2));
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c, svc));

  const int kKeys = 80;
  for (int i = 0; i < kKeys; ++i) {
    NodeId w = c.ids()[static_cast<std::size_t>(i) % c.ids().size()];
    svc.at(w)->map.put("mk" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(run_until(c, svc, [&] {
    for (auto& [id, st] : svc) {
      if (!st->map.synced() ||
          st->map.size() != static_cast<std::size_t>(kKeys)) {
        return false;
      }
    }
    return true;
  }));

  svc.at(1)->mgr.start_resize(4);
  ASSERT_TRUE(run_until(c, svc, [&] { return resize_settled(c, svc, 4, 1); }))
      << "migration never settled";

  const ShardRouter target(4);
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "mk" + std::to_string(i);
    const std::size_t home = target.shard_of(key);
    for (NodeId id : c.ids()) {
      auto& m = svc.at(id)->map;
      auto v = m.get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " lost " << key;
      EXPECT_EQ(*v, "v" + std::to_string(i));
      // After the epoch retires the key lives on its new home partition
      // and nowhere else (the source copies were dropped + scrubbed).
      for (std::size_t s = 0; s < m.shard_count(); ++s) {
        EXPECT_EQ(m.shard(s).contains(key), s == home)
            << "node " << id << " key " << key << " shard " << s;
      }
    }
  }
}

TEST(ReshardLiveTest, WritesDuringTheWindowAreAllServed) {
  Cluster c({1, 2, 3}, plane(2));
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c, svc));

  // Single writer per key (cross-epoch multi-writer races resolve by LWW,
  // documented in DESIGN.md §5j); the writer overwrites its keys while the
  // migration runs, so bounced writes and the forwarding window are on the
  // hot path.
  std::map<std::string, std::string> expect;
  int round = 0;
  auto write_round = [&] {
    ++round;
    for (int i = 0; i < 40; ++i) {
      NodeId w = c.ids()[static_cast<std::size_t>(i) % c.ids().size()];
      std::string key = "wk" + std::to_string(i);
      std::string val = "r" + std::to_string(round);
      svc.at(w)->map.put(key, val);
      expect[key] = val;
    }
  };
  write_round();
  svc.at(2)->mgr.start_resize(4);
  for (int burst = 0; burst < 6; ++burst) {
    run_until(c, svc, [] { return false; }, millis(120));
    write_round();
  }
  ASSERT_TRUE(run_until(c, svc, [&] { return resize_settled(c, svc, 4, 1); }))
      << "migration never settled under write load";
  // The last round's writes may still be in flight — wait until every node
  // serves every key at its final value before asserting.
  auto all_final = [&] {
    for (const auto& [key, val] : expect) {
      for (NodeId id : c.ids()) {
        auto v = svc.at(id)->map.get(key);
        if (!v || *v != val) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(run_until(c, svc, all_final, seconds(30)))
      << "some write issued during the window was lost or left stale";
  for (const auto& [key, val] : expect) {
    for (NodeId id : c.ids()) {
      auto v = svc.at(id)->map.get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " lost " << key;
      EXPECT_EQ(*v, val) << "node " << id << " stale " << key;
    }
  }
}

TEST(ReshardLiveTest, LocksStayExclusiveAcrossTheResize) {
  Cluster c({1, 2, 3}, plane(2));
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c, svc));

  // Hold a batch of locks across the whole migration; waiters queued behind
  // them must be granted exactly once, after release, wherever the lock's
  // row migrated to.
  std::vector<std::string> names;
  for (int i = 0; names.size() < 12; ++i) {
    names.push_back("lock-" + std::to_string(i));
  }
  std::map<std::string, int> grants1, grants2;
  for (const auto& n : names) {
    svc.at(1)->locks.acquire(n, [&](const std::string& g) {
      ++grants1[g];
    });
  }
  ASSERT_TRUE(run_until(c, svc, [&] {
    return grants1.size() == names.size();
  }));
  for (const auto& n : names) {
    svc.at(2)->locks.acquire(n, [&](const std::string& g) {
      ++grants2[g];
      EXPECT_TRUE(svc.at(2)->locks.held_by_me(g));
    });
  }

  svc.at(1)->mgr.start_resize(4);
  ASSERT_TRUE(run_until(c, svc, [&] { return resize_settled(c, svc, 4, 1); }));
  // Holder still owns every lock after the hand-off; waiters still pending.
  for (const auto& n : names) {
    EXPECT_TRUE(svc.at(1)->locks.held_by_me(n)) << n;
    EXPECT_EQ(grants2.count(n), 0u) << n << " granted while held";
  }
  for (const auto& n : names) svc.at(1)->locks.release(n);
  ASSERT_TRUE(run_until(c, svc, [&] { return grants2.size() == names.size(); }))
      << "queued waiters lost across the migration";
  for (const auto& n : names) {
    EXPECT_EQ(grants1[n], 1) << n;
    EXPECT_EQ(grants2[n], 1) << n;
  }
}

TEST(ReshardLiveTest, SecondResizeUsesTheNextEpoch) {
  Cluster c({1, 2, 3}, plane(2));
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c, svc));
  for (int i = 0; i < 30; ++i) {
    svc.at(1)->map.put("e" + std::to_string(i), "x");
  }
  svc.at(1)->mgr.start_resize(3);
  ASSERT_TRUE(run_until(c, svc, [&] { return resize_settled(c, svc, 3, 1); }));
  svc.at(2)->mgr.start_resize(5);
  ASSERT_TRUE(run_until(c, svc, [&] { return resize_settled(c, svc, 5, 2); }));
  const ShardRouter target(5);
  for (int i = 0; i < 30; ++i) {
    std::string key = "e" + std::to_string(i);
    for (NodeId id : c.ids()) {
      auto& m = svc.at(id)->map;
      ASSERT_TRUE(m.get(key).has_value()) << "node " << id << " lost " << key;
      EXPECT_TRUE(m.shard(target.shard_of(key)).contains(key));
    }
  }
}

TEST(ReshardDurabilityTest, FullRestartRecoversIntoTheGrownEpoch) {
  const std::string root = ::testing::TempDir() + "/reshard_recover";
  std::filesystem::remove_all(root);
  const int kKeys = 40;
  {
    Cluster c({1, 2, 3}, plane(2, root));
    auto svc = services_on(c);
    ASSERT_TRUE(converge(c, svc));
    for (int i = 0; i < kKeys; ++i) {
      svc.at(1)->map.put("dk" + std::to_string(i), "d" + std::to_string(i));
    }
    svc.at(1)->mgr.start_resize(4);
    ASSERT_TRUE(
        run_until(c, svc, [&] { return resize_settled(c, svc, 4, 1); }));
    for (NodeId id : c.ids()) c.plane(id).flush_storage();
  }

  // Full teardown + restart from disk: each plane is reconstructed
  // pre-grown (four shard directories on disk), recovery replays the
  // reshard journal stream, and after_recovery lands every node on the
  // completed epoch — no migration window reopened.
  Cluster g({1, 2, 3}, plane(4, root));
  auto gsvc = services_on(g);
  ASSERT_TRUE(converge(g, gsvc));
  for (auto& [id, st] : gsvc) {
    EXPECT_FALSE(st->mgr.migrating()) << "node " << id;
    EXPECT_EQ(st->mgr.epoch(), 1u) << "node " << id;
    EXPECT_EQ(g.plane(id).vrouter().current().shard_count(), 4u)
        << "node " << id;
  }
  ASSERT_TRUE(run_until(g, gsvc, [&] {
    for (auto& [id, st] : gsvc) {
      if (!st->map.synced() ||
          st->map.size() != static_cast<std::size_t>(kKeys)) {
        return false;
      }
    }
    return true;
  }, seconds(40))) << "restarted cluster never reconverged";
  const ShardRouter target(4);
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "dk" + std::to_string(i);
    for (auto& [id, st] : gsvc) {
      auto v = st->map.get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " missing " << key;
      EXPECT_EQ(*v, "d" + std::to_string(i));
      EXPECT_TRUE(st->map.shard(target.shard_of(key)).contains(key));
    }
  }
  std::filesystem::remove_all(root);
}

// A shard whose store is down when the epoch finishes learns of it only
// from a ring-0 state dump, which is not journaled. After the store
// restarts, its journal reopens the epoch's record although ring 0 closed
// the epoch (DESIGN.md §5b #15, the unfreeze-partition sweep's seeds 4 and
// 7). The record used to stay forever: the replica kept its moved-out keys
// and diverged from the replicas that retired. Now a node that knows the
// epoch closed re-sends kEpochComplete on that ring.
void run_shard_down_at_completion(bool record_durable) {
  const std::string root = ::testing::TempDir() + "/reshard_down_at_complete" +
                           (record_durable ? "_durable" : "_lost");
  std::filesystem::remove_all(root);
  const int kKeys = 40;
  Cluster c({1, 2, 3}, plane(2, root));
  auto svc = services_on(c);
  ASSERT_TRUE(converge(c, svc));
  for (int i = 0; i < kKeys; ++i) {
    svc.at(1)->map.put("dk" + std::to_string(i), "d" + std::to_string(i));
  }
  ASSERT_TRUE(run_until(c, svc, [&] {
    for (auto& [id, st] : svc) {
      if (st->map.size() != static_cast<std::size_t>(kKeys)) return false;
    }
    return true;
  }));

  // The epoch opens everywhere and shard 1 journals its record (a write
  // routed to shard 1 announces the epoch on that ring). Unless it is
  // flushed, the power cut below loses that record with the WAL tail.
  svc.at(1)->mgr.start_resize(4);
  ASSERT_TRUE(run_until(c, svc, [&] {
    for (auto& [id, st] : svc) {
      if (!st->mgr.migrating()) return false;
    }
    return true;
  }));
  const ShardRouter before(2);
  std::string on_shard1;
  for (int i = 0; i < kKeys && on_shard1.empty(); ++i) {
    const std::string key = "dk" + std::to_string(i);
    if (before.shard_of(key) == 1) on_shard1 = key;
  }
  ASSERT_FALSE(on_shard1.empty());
  svc.at(1)->map.put(on_shard1, "announce");
  c.net().loop().run_for(millis(200));
  if (record_durable) {
    for (NodeId id : c.ids()) c.plane(id).flush_storage();
  }

  // Node 3 is cut off and finishes the epoch alone. Nodes 1 and 2 cannot:
  // their shard-1 stores are down.
  c.net().partition({{1, 2}, {3}});
  for (NodeId id : {1u, 2u}) {
    c.plane(id).crash_store(1);
    c.plane(id).ring(1).stop();
  }
  auto& n3 = *svc.at(3);
  ASSERT_TRUE(run_until(c, svc, [&] {
    return !n3.mgr.migrating() && n3.mgr.epoch() == 1;
  })) << "node 3 never finished the epoch";

  // Nodes 1 and 2 adopt the finished epoch from node 3's state dump while
  // their shard-1 stores are still down; then those stores restart.
  c.net().heal_partition();
  ASSERT_TRUE(run_until(c, svc, [&] {
    for (NodeId id : {1u, 2u}) {
      const auto& st = *svc.at(id);
      if (st.mgr.migrating() || st.mgr.epoch() != 1 ||
          c.plane(id).ring(0).view().members.size() != 3) {
        return false;
      }
    }
    return true;
  })) << "nodes 1 and 2 never learned that the epoch closed";
  for (NodeId id : {1u, 2u}) {
    auto& st = *svc.at(id);
    c.plane(id).open_store(1);
    c.plane(id).recover_store(1);
    st.mgr.after_recovery();
    c.plane(id).ring(1).found();
  }
  ASSERT_TRUE(run_until(c, svc, [&] {
    if (!resize_settled(c, svc, 4, 1)) return false;
    for (NodeId id : {1u, 2u}) {
      if (svc.at(id)->map.shard(1).contents() !=
          n3.map.shard(1).contents()) {
        return false;
      }
    }
    return true;
  })) << "the shard-1 replicas never converged";

  const ShardRouter target(4);
  for (auto& [id, st] : svc) {
    for (const auto& [key, value] : st->map.shard(1).contents()) {
      EXPECT_EQ(target.shard_of(key), 1u)
          << "node " << id << " keeps " << key << " on shard 1";
    }
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "dk" + std::to_string(i);
      auto v = st->map.get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " lost " << key;
      EXPECT_EQ(*v, key == on_shard1 ? "announce" : "d" + std::to_string(i));
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ReshardDurabilityTest, ShardDownAtCompletionRetiresRecordAfterRestart) {
  run_shard_down_at_completion(/*record_durable=*/true);
}

// Same, but the shard's record of the epoch never became durable: it
// recovers the old table with no record at all.
TEST(ReshardDurabilityTest, ShardDownAtCompletionRetiresOldTableAfterRestart) {
  run_shard_down_at_completion(/*record_durable=*/false);
}

// --- migration chaos sweep ---------------------------------------------------
//
// Each round grows a 4-node cluster 2 -> 4 shards mid-storm while one
// TARGETED migration fault fires at its trigger phase (on top of a lighter
// background schedule of crashes, drops and shard restarts), then judges:
//   - zero acked-write loss and zero phantom resurrection (double-apply)
//     over the FINAL shard count;
//   - every node agreeing on the final epoch and table;
//   - every surviving key on exactly its final owner shard.
// Seeds replay bit-for-bit; a failure prints the full fault schedule.

void run_reshard_sweep(std::uint64_t first_seed, std::uint64_t last_seed,
                       testing::MigrationFault fault) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("raincore_reshard_chaos_" +
       std::to_string(static_cast<unsigned>(fault)) + "_" +
       std::to_string(::getpid()));
  fs::create_directories(root);
  std::uint64_t total_acked = 0;
  std::size_t completed = 0;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const std::string dir = (root / ("seed" + std::to_string(seed))).string();
    testing::ReshardRoundOptions opts;
    opts.fault = fault;
    testing::DurabilityRoundResult res = testing::run_reshard_round(seed, dir, opts);
    EXPECT_TRUE(res.violations.empty())
        << "seed " << seed << ":\n" << res.report;
    EXPECT_EQ(res.acked_lost, 0u) << "seed " << seed << " lost acked writes";
    EXPECT_EQ(res.phantom_resurrections, 0u)
        << "seed " << seed << " double-applied (resurrected) keys";
    EXPECT_TRUE(res.resize_completed)
        << "seed " << seed << " healed at " << res.final_shards
        << " shards (epoch " << res.final_epoch << ")";
    EXPECT_GE(res.final_epoch, 1u) << "seed " << seed;
    total_acked += res.acked_ops;
    if (res.resize_completed) ++completed;
    fs::remove_all(dir);
  }
  // The storm must actually have stormed AND the cluster must have grown.
  EXPECT_GT(total_acked, 0u);
  EXPECT_EQ(completed, last_seed - first_seed + 1);
  fs::remove_all(root);
}

TEST(ReshardChaosTest, KillSourceMidSnapshotSeeds1To9) {
  run_reshard_sweep(1, 9, testing::MigrationFault::kKillSourceMidSnapshot);
}

TEST(ReshardChaosTest, KillDestBeforeCutoverSeeds1To9) {
  run_reshard_sweep(1, 9, testing::MigrationFault::kKillDestBeforeCutover);
}

TEST(ReshardChaosTest, PartitionDuringUnfreezeSeeds1To9) {
  run_reshard_sweep(1, 9, testing::MigrationFault::kPartitionDuringUnfreeze);
}

}  // namespace
}  // namespace raincore
