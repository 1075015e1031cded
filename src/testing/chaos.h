// Deterministic chaos engine with protocol invariant checkers.
//
// Drives a live simulated Raincore cluster through a randomized but fully
// seed-replayable schedule of faults — crash/restart with new incarnations,
// partitions, link cuts, drop-rate bursts, latency storms, duplication
// bursts, corruption bursts and reordering windows — interleaved with
// application traffic, then heals everything and asserts the protocol
// invariants the paper promises:
//
//   - at most one token holder among nodes sharing an identical view (§2.2);
//   - membership converges to exactly the live set (§2.3/§2.4);
//   - gap-free, identically-ordered per-origin multicast delivery on the
//     surviving nodes (§2.6), and exactly-once delivery per incarnation
//     throughout the chaos phase;
//   - distributed-lock mutual exclusion and replica agreement (§2.7);
//   - replicated-map convergence across replicas (§3);
//   - every virtual IP covered by a live owner the subnet resolves (§3.1).
//
// The ring invariants are checked by testing/oracles.h, shared with the
// durability harness and testing::Cluster; the application invariants live
// here.
//
// Every stochastic decision draws from one seeded Rng in virtual time, so a
// violation report carries the seed and the full fault schedule: re-running
// with the same seed reproduces the failure bit-for-bit.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/vip/vip_manager.h"
#include "common/metrics.h"
#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "net/sim_network.h"
#include "session/session_node.h"
#include "testing/oracles.h"

namespace raincore::testing {

enum class FaultClass : std::uint8_t {
  kCrashRestart = 0,  ///< node crash-stops, later rejoins as a new incarnation
  kPartition,         ///< fabric splits into two isolated groups, then heals
  kLinkCut,           ///< one node pair loses connectivity, then recovers
  kDropBurst,         ///< one node pair suffers heavy packet loss for a while
  kLatencyStorm,      ///< one node pair's latency/jitter spikes
  kDuplicateBurst,    ///< one node pair duplicates packets
  kCorruptBurst,      ///< one node pair flips payload bits in flight
  kReorderWindow,     ///< one node pair stops preserving FIFO order
  kRttInflate,        ///< sustained multi-x latency inflation on a node pair
  kAsymLoss,          ///< heavy one-direction-only packet loss on a pair
  kLinkFlap,          ///< link toggles up/down on a short period, then heals
  kShardRestart,      ///< one data-plane shard restarts cluster-wide (durability)
  kClusterRestart,    ///< every node crash-stops, then the whole cluster restarts
  kCount,             ///< number of fault classes (not a fault)
};

const char* fault_class_name(FaultClass c);

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Mean (exponential) gap between fault injections.
  Time mean_gap = millis(120);
  /// Mean (exponential) duration of a fault before it auto-reverts.
  Time mean_duration = millis(350);
  /// Crash faults never reduce the up-node count below this.
  std::size_t min_alive = 2;
  /// Relative weight per fault class, indexed by FaultClass. Zero disables
  /// the class. The restart-storm classes (kShardRestart, kClusterRestart)
  /// default to zero: they only make sense against a durability harness,
  /// which gives the engine its shard count and hooks (set_shard_hooks),
  /// and a zero weight keeps every pre-existing seeded schedule
  /// bit-for-bit identical.
  double weights[static_cast<std::size_t>(FaultClass::kCount)] = {
      1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0};
};

/// One injected fault, recorded for the replayable schedule.
struct FaultEvent {
  Time at = 0;
  FaultClass cls = FaultClass::kCrashRestart;
  NodeId a = kInvalidNode;  ///< affected node (or first of the pair)
  NodeId b = kInvalidNode;  ///< second of the pair, if pairwise
  double rate = 0.0;        ///< drop/duplicate/corrupt probability, if any
  Time duration = 0;        ///< time until auto-revert
  /// Shard index, kShardRestart only.
  std::size_t shard = static_cast<std::size_t>(-1);

  std::string describe() const;
};

/// Injects a randomized, seed-replayable fault schedule into a SimNetwork.
/// The engine owns node up/down state and link overrides while running;
/// crash/restart of the protocol stack is delegated to the hooks so the
/// engine works with any harness (testing::Cluster, ChaosCluster, benches).
class ChaosEngine {
 public:
  using NodeHook = std::function<void(NodeId)>;
  using ShardHook = std::function<void(std::size_t)>;

  ChaosEngine(net::SimNetwork& net, std::vector<NodeId> ids, ChaosConfig cfg);
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;
  ~ChaosEngine();

  /// Called right before the engine marks the node down (stop the stack).
  void set_crash_hook(NodeHook fn) { on_crash_ = std::move(fn); }
  /// Called right after the engine marks the node up again (rejoin as a new
  /// incarnation).
  void set_restart_hook(NodeHook fn) { on_restart_ = std::move(fn); }
  /// Shard-restart hooks (kShardRestart picks one of shards 0..n-1): the
  /// harness stops/recovers the shard's service on every live node. Node
  /// up/down state is untouched — the shard dies cluster-wide while every
  /// other shard keeps serving.
  void set_shard_hooks(std::size_t n, ShardHook crash, ShardHook restart) {
    n_shards_ = n;
    on_shard_crash_ = std::move(crash);
    on_shard_restart_ = std::move(restart);
  }

  /// Targeted injections (the migration fault schedules of DESIGN.md §5j):
  /// same machinery, bookkeeping and auto-revert as the randomized injector,
  /// and recorded in the replayable schedule. Return false when the fault
  /// cannot apply right now (node already down, partition already active).
  bool inject_crash(NodeId id, Time duration);
  bool inject_partition(std::vector<NodeId> group_a, Time duration);

  /// Begins injecting faults (timers run on the network's event loop).
  void start();
  /// Stops injecting, reverts every active fault, heals the partition and
  /// restarts every crashed node — the cluster is left fault-free.
  void stop_and_heal();

  bool running() const { return running_; }
  std::vector<NodeId> alive() const;

  const std::vector<FaultEvent>& schedule() const { return schedule_; }
  std::size_t faults_injected() const { return schedule_.size(); }
  /// Which fault classes have fired so far.
  std::set<FaultClass> classes_seen() const;
  /// Seed header plus one line per injected fault — printed on violation so
  /// the failing run can be replayed exactly.
  std::string describe_schedule() const;

 private:
  void schedule_next();
  void inject_one();
  FaultClass pick_class();
  NodeId pick_alive();
  std::pair<NodeId, NodeId> pick_pair();
  void crash(NodeId id, Time duration);
  void restart(NodeId id);
  void restart_shard(std::size_t shard);
  void add_revert(Time after, std::function<void()> fn);
  /// One phase of a link-flap fault: toggles the link and schedules the
  /// next phase until `until` (or stop_and_heal) restores the link.
  void flap_link(NodeId a, NodeId b, bool down, Time period, Time until);

  net::SimNetwork& net_;
  std::vector<NodeId> ids_;
  ChaosConfig cfg_;
  Rng rng_;
  bool running_ = false;
  net::TimerId next_timer_ = 0;
  std::set<NodeId> down_;
  std::set<std::size_t> shards_down_;
  /// Groups of the currently active partition (empty = none). A node that
  /// restarts while a partition is active joins a random group so it cannot
  /// bridge the split.
  std::vector<std::vector<NodeId>> partition_groups_;
  struct Revert {
    net::TimerId timer = 0;
    std::function<void()> fn;
  };
  std::map<std::uint64_t, Revert> reverts_;
  std::uint64_t next_revert_id_ = 1;
  std::vector<FaultEvent> schedule_;
  NodeHook on_crash_;
  NodeHook on_restart_;
  std::size_t n_shards_ = 0;
  ShardHook on_shard_crash_;
  ShardHook on_shard_restart_;
};

// --- Full-stack chaos harness ----------------------------------------------

class Cluster;  // testing/cluster.h, which includes this header

/// A complete Raincore stack per node — a one-ring testing::Cluster node
/// with a channel mux, replicated map, distributed lock manager and
/// virtual-IP manager on a shared subnet over its ring — plus a
/// deterministic traffic generator and the invariant checkers.
class ChaosCluster {
 public:
  ChaosCluster(std::vector<NodeId> ids, ChaosConfig chaos_cfg,
               session::SessionConfig session_cfg = {},
               net::SimNetConfig net_cfg = {},
               transport::TransportConfig tcfg = {});
  ~ChaosCluster();

  /// Phase 1: found everybody and wait for one converged group.
  bool bootstrap(Time timeout = millis(5000));
  /// Phase 2: background traffic + fault injection for `duration`.
  void run_chaos(Time duration);
  /// Phase 3: heal everything, wait for reconvergence, run the quiescent
  /// invariant checks. Appends to violations().
  void heal_and_check(Time converge_timeout = millis(15000));

  const std::vector<std::string>& violations() const { return violations_; }
  ChaosEngine& engine() { return engine_; }
  net::SimNetwork& net();
  session::SessionNode& session(NodeId id);

  /// Cluster-wide merge of every layer's registry on every node (transport,
  /// session, mux, map, locks, VIPs) plus the harness's failure-detection
  /// oracle instruments. Deterministic for a given seed.
  metrics::Snapshot metrics_snapshot() const;
  /// Failure-detection oracle: removals of a node whose process was alive
  /// at removal time (the false-alarm cost of §2.2's aggressive detector).
  std::uint64_t false_removals() const { return false_removals_.value(); }
  /// Removals of genuinely crashed nodes.
  std::uint64_t true_removals() const { return true_removals_.value(); }
  /// Live ring state of every node (session::dump_rings).
  std::string ring_dump() const;
  /// Diagnostic artifact for a failed round: violations, the replayable
  /// fault schedule, the ring dump, and the final metrics table.
  std::string failure_report() const;

 private:
  void start_traffic(NodeId id);
  void record_delivery(NodeId receiver, NodeId origin, const Slice& payload);
  void on_removal_observed(NodeId remover, NodeId removed);
  void check_lock_service(const std::vector<NodeId>& live);
  void check_map_convergence(const std::vector<NodeId>& live);
  void check_vip_coverage(const std::vector<NodeId>& live);
  void violation(std::string what);
  ViolationFn sink() {
    return [this](std::string what) { violation(std::move(what)); };
  }
  LogFn log_of() const;

  /// The nodes. Declared first: the services below die before their rings
  /// (VipManager's destructor cancels its timer through its ring's env).
  std::unique_ptr<Cluster> c_;
  ChaosEngine& engine_;
  apps::Subnet subnet_;

  /// One node's services, traffic and oracle state.
  struct Stack {
    std::unique_ptr<data::ChannelMux> mux;
    std::unique_ptr<data::ReplicatedMap> map;
    std::unique_ptr<data::LockManager> locks;
    std::unique_ptr<apps::VipManager> vips;
    std::uint64_t traffic_counter = 0;
    net::TimerId traffic_timer = 0;
    Rng traffic_rng{0};
    std::vector<Delivered> log;  ///< app-channel deliveries
    Time crashed_at = -1;  ///< virtual time of the current crash, -1 if up
    Time restarted_at = -1;  ///< virtual time of the last chaos restart
    bool detection_recorded = false;  ///< latency sampled for this crash
  };
  std::map<NodeId, Stack> stacks_;
  bool traffic_on_ = false;
  std::vector<std::string> violations_;

  /// Harness-owned oracle instruments: removal outcomes judged against
  /// ground truth (was the removed node's process actually alive?) and the
  /// crash-to-first-removal detection latency.
  metrics::Registry harness_metrics_;
  Counter& false_removals_ = harness_metrics_.counter("session.false_removals");
  Counter& true_removals_ = harness_metrics_.counter("session.true_removals");
  Histogram& detection_latency_ =
      harness_metrics_.histogram("session.detection_latency_ns");
};

/// One full chaos round: bootstrap → chaos + traffic → heal → invariant
/// checks. Everything derives from `seed`; identical seeds produce identical
/// schedules and outcomes.
struct ChaosRoundResult {
  std::vector<std::string> violations;
  std::string schedule;  ///< seed + fault log (replay recipe)
  std::size_t faults = 0;
  std::set<FaultClass> classes;
  /// Final cluster-wide metrics (deterministic per seed).
  metrics::Snapshot metrics;
  /// Full diagnostic artifact (ring dump + metrics table); non-empty only
  /// when the round had violations.
  std::string report;
  /// Oracle outcomes (also present in `metrics` under session.*).
  std::uint64_t false_removals = 0;
  std::uint64_t true_removals = 0;
};

/// Environment profile for a chaos round, layered under the fault schedule:
/// a uniform base packet-loss rate on every link and the choice between the
/// paper's fixed-RTO detector and the adaptive one (RTT estimation, backoff
/// with jitter, health steering, probation).
struct ChaosProfile {
  double base_loss = 0.0;
  bool adaptive = false;
  /// Token-hop batching knobs (session_node.h). Zero = leave the session
  /// defaults untouched, which keeps every pre-batching seeded schedule
  /// bit-identical; set both to exercise batch formation under the fault
  /// schedule.
  std::size_t max_batch_msgs = 0;
  std::size_t max_batch_bytes = 0;
};

ChaosRoundResult run_chaos_round(std::uint64_t seed,
                                 Time chaos_duration = millis(2000),
                                 std::size_t n_nodes = 5,
                                 ChaosProfile profile = {});

// --- Multi-ring chaos harness ----------------------------------------------

/// N nodes × K independent rings over ONE shared transport per node
/// (session/session_mux.h), built as a testing::Cluster of K bare rings
/// (metrics prefixed "ring<k>." when K > 1). Crashes are node-level: the whole
/// mux goes down — every ring plus the shared transport — and a restart
/// re-founds every ring as a fresh incarnation.
///
/// Checks every ring invariant of testing/oracles.h (token uniqueness within
/// a ring, membership convergence, duplicate-free, in-order and correctly
/// attributed chaos deliveries, a complete, exactly-once post-heal batch in
/// one agreed order) independently per ring, plus the cross-ring invariants
/// that only exist in the multi-session runtime:
///   - detector consistency: at quiescence every ring on every node agrees
///     on the same live membership (one failure detector feeding K rings
///     must not leave them with divergent opinions);
///   - single detection state: each node's merged metrics contain exactly
///     one `transport.rtt_samples` instrument — the shared transport's —
///     and no per-ring duplicate of any transport.* instrument.
class MultiRingChaosCluster {
 public:
  MultiRingChaosCluster(std::vector<NodeId> ids, std::size_t n_rings,
                        ChaosConfig chaos_cfg,
                        session::SessionConfig session_cfg = {},
                        net::SimNetConfig net_cfg = {},
                        transport::TransportConfig tcfg = {});
  ~MultiRingChaosCluster();

  bool bootstrap(Time timeout = millis(8000));
  void run_chaos(Time duration);
  void heal_and_check(Time converge_timeout = millis(15000));

  const std::vector<std::string>& violations() const { return violations_; }
  ChaosEngine& engine() { return engine_; }
  /// Cluster-wide merge of every node's SessionMux registries (the shared
  /// transport and every ring). Deterministic for a given seed.
  metrics::Snapshot metrics_snapshot() const;
  std::string failure_report() const;

 private:
  /// One node's traffic generator.
  struct Stack {
    std::vector<std::uint64_t> counters;  ///< per-ring traffic counter
    net::TimerId traffic_timer = 0;
    Rng traffic_rng{0};
  };

  void start_traffic(NodeId id);
  void check_detector_consistency(const std::vector<NodeId>& live);
  void violation(std::string what);
  ViolationFn sink() {
    return [this](std::string what) { violation(std::move(what)); };
  }

  std::unique_ptr<Cluster> c_;
  ChaosEngine& engine_;
  std::size_t n_rings_;
  std::map<NodeId, Stack> stacks_;
  bool traffic_on_ = false;
  std::vector<std::string> violations_;
};

/// One full multi-ring chaos round, fully derived from `seed`.
ChaosRoundResult run_multi_ring_round(std::uint64_t seed,
                                      Time chaos_duration = millis(2000),
                                      std::size_t n_nodes = 4,
                                      std::size_t n_rings = 3,
                                      ChaosProfile profile = {});

}  // namespace raincore::testing
