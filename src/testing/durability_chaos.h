// Restart-storm chaos for the durable data plane (DESIGN.md §5g).
//
// Every node runs a full sharded stack — SessionMux, ShardedDataPlane with
// per-shard WAL+snapshot stores on real disk, ShardedMap, ShardedLockManager
// — while the ChaosEngine kills and restarts single nodes, whole shards
// (cluster-wide: every node loses that shard's ring and store at once) and
// the entire cluster mid-traffic. Crashes use the power-cut model: the
// unsynced WAL tail is gone; restart recovers from snapshot+WAL, rejoins,
// and reconciles against the live group.
//
// The durability oracle drives one-outstanding-op-per-slot client state
// machines over keys "d<node>:<slot>" with globally unique values, and
// ACKNOWLEDGES a write only when both hold:
//   - the issuing node observed its own apply (agreed order reached it), and
//   - the journal record of that apply is durable (its LSN is at or below
//     the shard store's durable LSN — fsynced or folded into a snapshot).
// Acks are swept on a short timer and at every crash/flush boundary, using
// the durable LSN as it stood at the power cut. Outstanding unacked ops are
// voided (a client timeout/retry); their effects MAY survive — the oracle
// treats them as allowed, like any real client that never got a reply.
//
// After heal + reconvergence the oracle classifies the final replicated
// state per key against its issue history:
//   - acked write lost: the final state matches neither the newest acked
//     op nor any op issued after it;
//   - phantom resurrection: the newest acked op was an erase (or the key
//     was erased by a later issued op) yet the key holds a value from an op
//     OLDER than that erase — a deleted entry clawed back by recovery.
// Both counters must be zero; every slot's unique values make the
// classification exact.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "data/reshard.h"
#include "data/shard_router.h"
#include "testing/cluster.h"

namespace raincore::testing {

/// Targeted migration fault schedules (DESIGN.md §5j), layered on top of
/// the background restart storm. Each fires once per round, triggered by
/// the observed phase of the live migration rather than by wall time.
enum class MigrationFault : std::uint8_t {
  kNone = 0,
  /// Crash the coordinator while a frozen range's snapshot chunks are in
  /// flight to the destination ring (the source-side replica the chunks
  /// are being read from dies mid-transfer).
  kKillSourceMidSnapshot,
  /// Crash a destination replica after the freeze landed but before the
  /// CUTOVER record does.
  kKillDestBeforeCutover,
  /// Split the fabric while ranges are cut over and unfreezing.
  kPartitionDuringUnfreeze,
};

struct DurabilityConfig {
  std::size_t n_shards = 2;
  std::size_t slots_per_node = 4;
  storage::StorageConfig storage;  ///< dir filled in by the harness
  /// Elastic resharding under the storm: when resize_to > n_shards the
  /// harness asks a live node to start_resize(resize_to) at resize_at into
  /// the chaos phase (re-requesting if the request dies with its proposer)
  /// and the heal phase waits for the migration to finish before judging
  /// the oracles over the FINAL shard count.
  std::size_t resize_to = 0;
  Time resize_at = millis(400);
  MigrationFault migration_fault = MigrationFault::kNone;
};

/// A testing::Cluster of durable ShardedDataPlane nodes, each with its map,
/// lock manager and ReshardManager, under the restart storm.
class DurabilityChaosCluster {
 public:
  /// `root_dir` holds one subdirectory per node ("node<id>"), each with one
  /// directory per shard store. The caller owns cleanup of root_dir.
  DurabilityChaosCluster(std::vector<NodeId> ids, std::string root_dir,
                         ChaosConfig chaos_cfg, DurabilityConfig dur_cfg,
                         session::SessionConfig session_cfg = {},
                         net::SimNetConfig net_cfg = {},
                         transport::TransportConfig tcfg = {});
  ~DurabilityChaosCluster();

  bool bootstrap(Time timeout = millis(8000));
  void run_chaos(Time duration);
  /// Heal, reconverge, quiesce, flush + final ack sweep, check replica
  /// convergence, then run the durability oracle.
  void heal_and_check(Time converge_timeout = millis(20000));

  const std::vector<std::string>& violations() const { return violations_; }
  ChaosEngine& engine() { return engine_; }

  std::uint64_t acked_ops() const { return acked_ops_; }
  std::uint64_t voided_ops() const { return voided_ops_; }
  std::uint64_t acked_lost() const { return acked_lost_; }
  std::uint64_t phantom_resurrections() const { return phantoms_; }

  /// Issue→ack latencies (ms) of every acked op, split by whether the
  /// migration window was open at issue or ack time. bench_reshard compares
  /// the two populations to bound the resize "blip"; chaos rounds ignore
  /// them.
  const std::vector<double>& ack_latencies_steady_ms() const {
    return ack_lat_steady_;
  }
  const std::vector<double>& ack_latencies_migration_ms() const {
    return ack_lat_migration_;
  }
  /// First/last sim time the migration window was observed open (0 if the
  /// watch never saw it — e.g. no resize was configured).
  Time migration_first_open() const { return mig_first_open_; }
  Time migration_last_open() const { return mig_last_open_; }

  /// Final migration outcome, valid after heal_and_check.
  std::uint64_t final_epoch() const { return final_epoch_; }
  std::size_t final_shard_count() const { return final_shards_; }
  bool resize_completed() const {
    return dur_cfg_.resize_to > 0 && final_shards_ == dur_cfg_.resize_to;
  }

  /// Merged storage.* + data.* + session/transport instruments of every
  /// node (the storage counters ride the per-shard registries), less the
  /// wall-clock storage.recovery_ns histograms: deterministic per seed.
  metrics::Snapshot metrics_snapshot() const;
  std::string failure_report() const;

 private:
  /// One node's services, traffic and fault state; its plane is the
  /// Cluster's.
  struct Stack {
    std::unique_ptr<data::ShardedMap> map;
    std::unique_ptr<data::ShardedLockManager> locks;
    std::unique_ptr<data::ReshardManager> mgr;
    net::TimerId traffic_timer = 0;
    Rng traffic_rng{0};
  };

  /// One issued client op. `id` is a cluster-global issue ordinal; values
  /// "v<id>-<node>:<slot>" are unique, so the final state names its op.
  struct OpRecord {
    std::uint64_t id = 0;
    bool is_erase = false;
    std::string value;  ///< empty for erases
    bool acked = false;
  };
  /// The in-flight op of one slot (at most one outstanding per slot).
  struct Pending {
    std::uint64_t op_id = 0;
    NodeId node = kInvalidNode;
    std::string key;
    std::size_t shard = 0;
    bool applied = false;        ///< own apply observed
    std::uint64_t applied_lsn = 0;  ///< store LSN of the journal record
    Time issued_at = 0;
    bool saw_migration = false;  ///< migration window open at issue or ack
  };

  void start_traffic(NodeId id);
  void issue_op(NodeId id);
  void on_map_change(NodeId id, std::size_t shard, const std::string& key,
                     const std::optional<std::string>& value, NodeId origin);
  /// Acks every applied pending op of `id` whose record is durable now.
  void sweep_acks(NodeId id);
  void sweep_acks_shard(std::size_t shard);
  void void_pending_node(NodeId id);
  void void_pending_shard(std::size_t shard);
  void void_stale_pending();
  void ack(Pending& p);
  void schedule_sweep();

  /// True while any live node's router window is open (old+new tables
  /// coexisting).
  bool migration_open();

  /// Chaos crash hooks: settle the acks the power cut decides, then
  /// crash through the Cluster (whose restarts need no bookkeeping).
  void crash_node(NodeId id);
  void crash_shard(std::size_t shard);

  void schedule_resize(Time delay);
  void schedule_migration_watch();
  /// Re-requests the resize when no node shows any trace of it (the first
  /// request can die with its proposer); idempotent once it took hold.
  void ensure_resize_requested();
  /// Fires the targeted migration fault once its trigger phase is observed.
  void watch_migration_fault();

  void check_map_convergence(const std::vector<NodeId>& live);
  void check_ownership();
  void run_oracle();
  void violation(std::string what);

  /// The nodes. Declared first: the services in stacks_ die before the
  /// planes they are built on.
  Cluster c_;
  ChaosEngine& engine_;
  std::string root_dir_;
  DurabilityConfig dur_cfg_;
  std::map<NodeId, Stack> stacks_;
  bool traffic_on_ = false;
  net::TimerId sweep_timer_ = 0;
  net::TimerId resize_timer_ = 0;
  net::TimerId watch_timer_ = 0;
  bool resize_requested_ = false;
  Time resize_requested_at_ = 0;
  bool migration_fault_fired_ = false;
  std::uint64_t final_epoch_ = 0;
  std::size_t final_shards_ = 0;

  std::uint64_t next_op_id_ = 1;
  /// key -> pending op (one outstanding per slot == per key).
  std::map<std::string, Pending> pending_;
  /// key -> full issue history, oldest first.
  std::map<std::string, std::vector<OpRecord>> history_;

  std::vector<double> ack_lat_steady_;
  std::vector<double> ack_lat_migration_;
  Time mig_first_open_ = 0;
  Time mig_last_open_ = 0;

  std::uint64_t acked_ops_ = 0;
  std::uint64_t voided_ops_ = 0;
  std::uint64_t acked_lost_ = 0;
  std::uint64_t phantoms_ = 0;
  std::vector<std::string> violations_;
};

/// One full durability round, derived from `seed`: bootstrap → restart-storm
/// chaos + client traffic → heal → convergence + durability oracle. The
/// on-disk state lives under `dir` (a fresh subtree per seed; caller picks a
/// tmp root and removes it afterwards).
struct DurabilityRoundResult {
  std::vector<std::string> violations;
  std::string schedule;
  std::size_t faults = 0;
  std::set<FaultClass> classes;
  std::uint64_t acked_ops = 0;
  std::uint64_t voided_ops = 0;
  std::uint64_t acked_lost = 0;
  std::uint64_t phantom_resurrections = 0;
  /// Cluster-wide merged instruments (metrics_snapshot()); identical for
  /// identical seeds.
  metrics::Snapshot metrics;
  std::string report;  ///< non-empty only when the round had violations
  /// Migration outcome (zero / n_shards / false for plain rounds).
  std::uint64_t final_epoch = 0;
  std::size_t final_shards = 0;
  bool resize_completed = false;
};

DurabilityRoundResult run_durability_round(std::uint64_t seed,
                                           const std::string& dir,
                                           Time chaos_duration = millis(2200),
                                           std::size_t n_nodes = 4,
                                           std::size_t n_shards = 2);

/// One live-resize chaos round: the cluster grows n_shards -> resize_to
/// mid-storm while one targeted migration fault (plus a lighter background
/// schedule) fires at its trigger phase. The heal phase additionally
/// requires every node to agree on the final epoch and shard count and
/// every surviving key to live on exactly its final owner shard.
struct ReshardRoundOptions {
  std::size_t resize_to = 4;
  Time resize_at = millis(350);
  MigrationFault fault = MigrationFault::kNone;
};

DurabilityRoundResult run_reshard_round(std::uint64_t seed,
                                        const std::string& dir,
                                        ReshardRoundOptions opts = {},
                                        Time chaos_duration = millis(1800),
                                        std::size_t n_nodes = 4,
                                        std::size_t n_shards = 2);

}  // namespace raincore::testing
