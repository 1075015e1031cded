// Elastic resharding: crash-safe live migration of key ranges between the
// shards of a ShardedDataPlane (DESIGN.md §5j, ROADMAP open item 1).
//
// The protocol moves each RangeId {from,to} through four steps, every one a
// message in an AGREED stream (so all replicas of the affected ring take
// the step at the same point of their operation sequence):
//
//   FREEZE   (source ring)  writes to the range start bouncing to the
//                           destination; the range's content is immutable
//                           from this stream point on.
//   CHUNK    (dest ring)    the coordinator replicates the frozen snapshot
//                           into the destination's agreed stream; entries
//                           apply through the strict-LWW repropose path,
//                           so chunks are idempotent and lose to fresher
//                           destination writes.
//   CUTOVER  (dest ring)    journaled commit record — the range's durable
//                           home flips to the destination; buffered lock
//                           ops flush in their original agreed order.
//   UNFREEZE (source ring)  the source drops its copy and compacts.
//
// Two invariants make the hand-off safe under concurrent writers:
//  - Replica determinism: every apply-point decision (apply / bounce /
//    buffer) is computed from per-partition filter records mutated ONLY by
//    messages ordered on that partition's own ring (each carries epoch and
//    new_k, so a record is constructible from any of them — no cross-ring
//    state is consulted at an apply point).
//  - Stamp fencing: at the freeze apply each node advances the destination
//    partition's send clock past the source's clock ceiling, so every
//    write routed to the destination afterwards outranks every chunk entry
//    under last-writer-wins.
//
// The coordinator (lowest id on ring 0) drives ranges sequentially and
// re-drives the current step on a timer; every step is idempotent, so a
// coordinator crash mid-range is resumed by its successor from whatever
// the rings already agree on. Journal records (Appendix A.9) restore the
// filter state on restart; nodes that rejoin with stale filters are healed
// by a ring-0 state dump plus a local scrub.
#pragma once

#include <set>
#include <utility>

#include "data/shard_router.h"

namespace raincore::data {

class ReshardManager {
 public:
  /// `initial_shards` is the shard count the deployment was originally
  /// configured with (0 = the plane's count at construction). A restart
  /// may construct the plane pre-grown from the on-disk shard directories;
  /// this anchors the recovery baseline for partitions whose journal
  /// stream is empty — partitions born in a later epoch always have an
  /// announce record that restores their actual birth table.
  ReshardManager(ShardedDataPlane& plane, ShardedMap& map,
                 ShardedLockManager& locks, std::size_t initial_shards = 0);

  /// Requests a live resize to `new_shards` (ignored while a migration is
  /// in flight or when new_shards does not grow the plane). Any node may
  /// call; the kResizeStart message serialises the request on ring 0.
  void start_resize(std::size_t new_shards);

  bool migrating() const { return active_; }
  std::uint64_t epoch() const {
    return active_ ? active_epoch_ : last_completed_epoch_;
  }

  /// Drives the coordinator: re-sends the current step if it stalled.
  /// Call periodically (the chaos harness ties it to its traffic timer).
  void tick();

  /// Rebuilds the routing window from the recovered per-partition filter
  /// journals — call after the plane's stores recovered.
  void after_recovery();

  /// Routing hooks (called by ShardedMap / ShardedLockManager).
  void ensure_announced(std::size_t shard);
  void pull_local_requests(const std::string& name, std::size_t dst);

  /// Migration instruments ("data.reshard.*").
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  enum class Msg : std::uint8_t {
    kResizeStart = 1,
    kAnnounce = 2,
    kFreeze = 3,
    kChunk = 4,
    kCommit = 5,
    kUnfreeze = 6,
    kEpochComplete = 7,
    kResizeDone = 8,
    kStateDump = 9,
    /// A node whose migration window stalled (e.g. it reopened a finished
    /// epoch from its journal after a crash too short for the failure
    /// detector to notice) asks ring 0 for a state dump; the lowest-id
    /// other member answers with kStateDump.
    kDumpRequest = 10,
  };
  enum class Rec : std::uint8_t {  // journal record types (Appendix A.9)
    kAnnounce = 1,
    kFreeze = 2,
    kCommit = 3,  // the CUTOVER record
    kComplete = 4,
  };
  using RangeKey = std::pair<std::uint32_t, std::uint32_t>;

  /// In-flight epoch of one partition, mutated only at that ring's apply
  /// points (or by journal replay / state-dump adoption).
  struct EpochRec {
    std::uint64_t epoch = 0;
    std::uint32_t new_k = 0;
    std::shared_ptr<const ShardRouter> next;
    std::set<RangeKey> frozen_out;   ///< ranges frozen out of this shard
    std::set<RangeKey> committed_in; ///< ranges CUT into this shard
  };
  struct PartitionFilter {
    std::shared_ptr<const ShardRouter> cur;
    std::optional<EpochRec> rec;
    std::uint64_t completed_epoch = 0;  ///< highest epoch retired into cur
  };
  /// True when `pf` has not retired `epoch` and holds no record of a later
  /// one: kEpochComplete for `epoch` retires it.
  static bool behind(const PartitionFilter& pf, std::uint64_t epoch) {
    return pf.completed_epoch < epoch && (!pf.rec || pf.rec->epoch <= epoch);
  }

  std::shared_ptr<const ShardRouter> table(std::uint32_t k);
  void wire_partition(std::size_t s);
  /// Returns the partition's record for `epoch`, creating (and journaling)
  /// it if absent; nullptr when the epoch is stale.
  EpochRec* ensure_rec(std::size_t s, std::uint64_t epoch,
                       std::uint32_t new_k);
  /// Grows plane/services/filters to `new_k` and opens the migration
  /// window — callable from ANY migration message (each carries epoch and
  /// new_k precisely so late observers can self-construct).
  void ensure_grown(std::uint64_t epoch, std::uint32_t new_k);

  std::size_t map_owner(std::size_t s, const std::string& key) const;
  /// Wholesale-adoption retention: wider than map_owner while a window is
  /// open (frozen-out source copies stay until UNFREEZE).
  bool retain_here(std::size_t s, const std::string& key) const;
  LockManager::RouteAction lock_action(std::size_t s,
                                       const std::string& name) const;
  void bounce_map(bool erase, const std::string& key, const std::string& value,
                  ReplicatedMap::Stamp stamp);
  void bounce_lock(std::size_t src, std::uint8_t op, const std::string& name,
                   std::uint64_t req);
  ReplicatedMap::KeyPred range_pred(std::size_t s, const RangeId& r) const;

  void on_message(std::size_t s, NodeId origin, const Slice& payload);
  void on_ring0_view(const session::View& v);
  void journal(std::size_t s, Rec rec, std::uint64_t epoch,
               std::uint32_t new_k, std::uint32_t from, std::uint32_t to);
  void send_state_dump();
  void adopt_state_dump(ByteReader& r);
  void scrub_partition(std::size_t s);
  /// Re-sends kEpochComplete on every started ring whose partition is
  /// behind the last epoch ring 0 closed (it was down when that epoch
  /// completed and recovered an older state from its journal).
  void retire_finished_partitions();

  /// Coordinator driver: sends (or re-sends, when `force`) the next step.
  void drive(bool force);
  bool i_coordinate() const;
  void send_range_step(Msg m, const RangeId& r);
  void send_chunks_and_commit(const RangeId& r);

  ShardedDataPlane& plane_;
  ShardedMap& map_;
  ShardedLockManager& locks_;

  bool active_ = false;
  std::uint64_t active_epoch_ = 0;
  std::uint64_t last_completed_epoch_ = 0;
  std::vector<PartitionFilter> filters_;
  std::vector<std::uint32_t> birth_k_;  ///< shard count when each was created
  std::map<std::uint32_t, std::shared_ptr<const ShardRouter>> tables_;
  std::uint64_t generation_ = 0;  ///< ring-0 session incarnation
  /// Rings this node already announced the active epoch on.
  std::set<std::size_t> announced_;
  std::vector<NodeId> prev_ring0_members_;

  /// Last coordinator action (step, range, epoch) + send time, to gate
  /// re-drive on the interval instead of re-sending every tick.
  std::uint64_t last_drive_sig_ = 0;
  Time last_drive_at_ = 0;
  Time last_dump_req_at_ = 0;  ///< rate limit for kDumpRequest
  Time last_retire_at_ = 0;    ///< rate limit for retire_finished_partitions

  metrics::Registry metrics_;
  Counter& resizes_ = metrics_.counter("data.reshard.resizes");
  Counter& ranges_moved_ = metrics_.counter("data.reshard.ranges_moved");
  Counter& chunks_sent_ = metrics_.counter("data.reshard.chunks_sent");
  Counter& redrives_ = metrics_.counter("data.reshard.redrives");
  Counter& dumps_ = metrics_.counter("data.reshard.state_dumps");
  Counter& scrubbed_ = metrics_.counter("data.reshard.scrubbed_keys");
};

}  // namespace raincore::data
