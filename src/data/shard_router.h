// Sharded data plane: consistent-hash routing of keys, locks and channels
// across K Raincore rings riding one shared transport (session/session_mux.h).
//
// One ring serialises all agreed traffic through a single circulating token,
// so a node's data throughput is capped by one token's carrying capacity no
// matter how fast the links are. Sharding runs K independent tokens over the
// same member set — each key/lock deterministically owned by exactly one
// shard — so aggregate throughput scales with K while every per-shard
// guarantee (agreed total order, FIFO, view synchrony) is preserved for the
// keys that land on that shard. Cross-shard total order is deliberately not
// promised; that is the classical sharding trade.
//
// The ShardRouter is a plain consistent-hash ring (FNV-1a points, ~dozens of
// virtual points per shard) so shard counts can differ between deployments
// without remapping every key, and so the assignment is a pure function of
// the key — every node routes identically with no coordination.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "data/channel_mux.h"
#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "session/session_mux.h"
#include "storage/shard_store.h"

namespace raincore::data {

class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shards, std::size_t points_per_shard = 128);

  /// Deterministic shard for a key — identical on every node, no state.
  std::size_t shard_of(std::string_view key) const;
  std::size_t shard_count() const { return shards_; }

  /// Sorted virtual points (hash position, shard index) — the frozen
  /// contract the elastic-resharding range computation walks.
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& points() const {
    return ring_;
  }

  static std::uint64_t hash64(std::string_view data);

 private:
  std::size_t shards_;
  /// Sorted virtual points: (hash position, shard index).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

// ---------------------------------------------------------------------------
// Versioned routing (elastic resharding, DESIGN.md §5j)

/// One migrating key range: the keys owned by `from` under the old table and
/// by `to` under the new one. Ranges are the unit of freeze/snapshot/CUTOVER/
/// unfreeze — a crash recovers to a state where each range is wholly on its
/// old owner or wholly on its new owner, never split.
struct RangeId {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  friend bool operator<(const RangeId& a, const RangeId& b) {
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  }
  friend bool operator==(const RangeId& a, const RangeId& b) {
    return a.from == b.from && a.to == b.to;
  }
};

/// Migration progress of one range, as observed by THIS node (client-side
/// routing state; the replica-deterministic truth lives in the per-ring
/// filter records of the ReshardManager).
enum class RangeState : std::uint8_t {
  kPending = 0,  ///< announced, source still owns
  kFrozen = 1,   ///< source writes bounce; snapshot in flight
  kCut = 2,      ///< CUTOVER journaled on the destination
  kDone = 3,     ///< source dropped its copy
};

/// Epoch-stamped pair of routing tables. Outside a migration window only
/// `current()` exists; `begin()` installs the next table and computes the
/// exact set of moved ranges from the merged virtual-point rings. Writers
/// route with route_write (source until the range freezes, destination
/// after), readers with route_read (destination first with a source
/// fallback during the window — the bounded redirect of the forwarding
/// window).
class VersionedRouter {
 public:
  explicit VersionedRouter(std::size_t shards) : cur_(shards) {}

  const ShardRouter& current() const { return cur_; }
  const ShardRouter* next() const { return next_ ? &*next_ : nullptr; }
  std::uint64_t epoch() const { return epoch_; }
  bool migrating() const { return next_.has_value(); }
  std::size_t new_shard_count() const {
    return next_ ? next_->shard_count() : cur_.shard_count();
  }

  /// Opens the migration window to `new_shards` (does nothing if already
  /// migrating). Moved ranges are derived exactly: every arc of the merged
  /// old+new virtual-point rings whose old and new owners differ.
  void begin(std::size_t new_shards, std::uint64_t new_epoch);
  /// Closes the window: the next table becomes current.
  void complete();
  /// Wholesale reset to an idle router of `shards` tables (state-dump
  /// adoption on rejoin — the dump is authoritative for routing state).
  void reset(std::size_t shards) {
    cur_ = ShardRouter(shards);
    next_.reset();
    ranges_.clear();
  }

  /// Exact moved ranges of the open window, sorted (empty when idle).
  const std::map<RangeId, RangeState>& ranges() const { return ranges_; }
  std::optional<RangeId> range_of(std::string_view key) const;
  RangeState state(const RangeId& r) const;
  void set_state(const RangeId& r, RangeState s);
  bool all_done() const;

  /// Where this node sends a write of `key` right now.
  std::size_t route_write(std::string_view key) const;
  /// Read route: primary shard, plus the old owner as fallback while the
  /// range is in flight (nullopt outside the window).
  struct ReadRoute {
    std::size_t primary = 0;
    std::optional<std::size_t> fallback;
  };
  ReadRoute route_read(std::string_view key) const;

  /// Computes the moved ranges between two tables (static so tests can
  /// check the minimal-disruption property without a router instance).
  static std::vector<RangeId> moved_ranges(const ShardRouter& oldr,
                                           const ShardRouter& newr);

 private:
  ShardRouter cur_;
  std::optional<ShardRouter> next_;
  std::uint64_t epoch_ = 0;
  std::map<RangeId, RangeState> ranges_;
};

class ReshardManager;

/// Per-node bundle of K shard rings on one SessionMux: creates rings on
/// groups 0..K-1 (metrics prefixes "shard<k>.") and wraps each in a
/// ChannelMux for the data services. The mux must outlive the plane.
///
/// With a non-empty storage config, the plane also owns one
/// storage::ShardStore per shard (directory `<dir>/shard<k>`, instruments
/// prefixed "shard<k>."), so every shard journals and recovers
/// independently: a shard-level restart replays only that shard's log.
/// Services bind to the stores in the ShardedMap/ShardedLockManager
/// constructors; the lifecycle (open → recover → found) and the power-cut
/// model (crash) are driven per shard or node-wide by the harness.
class ShardedDataPlane {
 public:
  ShardedDataPlane(session::SessionMux& mux, std::size_t shards,
                   session::SessionConfig ring_cfg,
                   storage::StorageConfig storage_cfg = {});

  std::size_t shard_count() const { return rings_.size(); }
  /// Routing table this node currently considers authoritative. During a
  /// migration window writers/readers should go through the vrouter (the
  /// ShardedMap/ShardedLockManager do); this accessor stays for callers
  /// that only ever run at a fixed shard count.
  const ShardRouter& router() const { return vrouter_.current(); }
  VersionedRouter& vrouter() { return vrouter_; }
  const VersionedRouter& vrouter() const { return vrouter_; }
  session::SessionNode& ring(std::size_t shard) { return *rings_.at(shard); }
  ChannelMux& channels(std::size_t shard) { return *channels_.at(shard); }

  /// Creates rings/channels/stores for shards [shard_count(), new_shards)
  /// — the structural half of an elastic resize; the rings are NOT founded
  /// (the ReshardManager founds them once the services are wired). No-op
  /// when new_shards <= shard_count(). Opens the new stores when the
  /// existing ones are open.
  void grow_to(std::size_t new_shards);

  /// Founds every shard ring (each discovers peers independently).
  void found_all();
  /// True when every shard ring's view has exactly n members.
  bool all_converged(std::size_t n) const;

  /// Durable store of one shard; nullptr when durability is disabled.
  storage::ShardStore* store(std::size_t shard) {
    return durable() ? stores_.at(shard).get() : nullptr;
  }
  bool durable() const { return !stores_.empty(); }

  /// Storage lifecycle: node-wide flush and power cut; a store opens and
  /// recovers per shard (a shard down cluster-wide stays closed).
  void flush_storage();
  void crash_storage();
  bool open_store(std::size_t shard);
  void recover_store(std::size_t shard);
  void crash_store(std::size_t shard);

  /// Merged storage.* instruments across all shard stores.
  metrics::Snapshot storage_snapshot() const;

 private:
  session::SessionMux& mux_;
  VersionedRouter vrouter_;
  session::SessionConfig ring_cfg_;     ///< template for grown rings
  storage::StorageConfig storage_cfg_;  ///< template for grown stores
  std::vector<session::SessionNode*> rings_;
  std::vector<std::unique_ptr<ChannelMux>> channels_;
  std::vector<std::unique_ptr<storage::ShardStore>> stores_;
};

/// Replicated map partitioned across the plane's shards: put/erase/get route
/// by key through the ShardRouter; each partition is a full ReplicatedMap on
/// its own ring, so mutations of keys on different shards ride different
/// tokens concurrently.
class ShardedMap {
 public:
  /// shard index, key, new value (nullopt = erased), origin.
  using ShardChangeFn = std::function<void(
      std::size_t shard, const std::string& key,
      const std::optional<std::string>& value, NodeId origin)>;

  ShardedMap(ShardedDataPlane& plane, Channel channel);

  void put(const std::string& key, const std::string& value);
  void erase(const std::string& key);
  std::optional<std::string> get(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Sum of all partition sizes (local, no coordination).
  std::size_t size() const;
  /// True once every partition replica is synced.
  bool synced() const;

  /// Fires for mutations on any shard (partition order within a shard,
  /// no order promise across shards).
  void set_change_handler(ReplicatedMap::ChangeFn fn);
  /// Like set_change_handler but also reports the shard the mutation
  /// APPLIED on — during a migration window that can differ from the shard
  /// the key routed to at issue time.
  void set_shard_change_handler(ShardChangeFn fn);

  /// Creates partitions for plane shards beyond shard_count() (after
  /// plane.grow_to), binding stores and re-applying the change handler.
  void grow();

  /// Routes through the migration-aware vrouter when a ReshardManager is
  /// attached (announce-before-first-write is the manager's job).
  void attach_reshard(ReshardManager* mgr) { reshard_ = mgr; }

  ReplicatedMap& shard(std::size_t i) { return *shards_.at(i); }
  /// Shard a write of `key` is routed to right now.
  std::size_t write_shard_of(const std::string& key) const;
  std::size_t shard_of(const std::string& key) const {
    return plane_.router().shard_of(key);
  }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  void wire_partition(std::size_t s);

  ShardedDataPlane& plane_;
  Channel channel_;
  ReshardManager* reshard_ = nullptr;
  ReplicatedMap::ChangeFn change_fn_;
  ShardChangeFn shard_change_fn_;
  std::vector<std::unique_ptr<ReplicatedMap>> shards_;
};

/// Lock manager partitioned across the plane's shards by lock name. Each
/// partition is a full LockManager on its own ring: acquisitions of locks on
/// different shards don't contend for the same token.
class ShardedLockManager {
 public:
  ShardedLockManager(ShardedDataPlane& plane, Channel channel);

  void acquire(const std::string& name, LockManager::GrantFn on_granted = {});
  void release(const std::string& name);
  bool held_by_me(const std::string& name) const;
  std::optional<NodeId> owner(const std::string& name) const;
  std::size_t waiters(const std::string& name) const;

  /// Creates partitions for plane shards beyond shard_count(), sharing the
  /// node-global request-id counter (so requests can migrate between
  /// partitions without id collisions).
  void grow();
  void attach_reshard(ReshardManager* mgr) { reshard_ = mgr; }

  LockManager& shard(std::size_t i) { return *shards_.at(i); }
  /// Shard an acquire/release of `name` is routed to right now.
  std::size_t write_shard_of(const std::string& name) const;
  std::size_t shard_of(const std::string& name) const {
    return plane_.router().shard_of(name);
  }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  void wire_partition(std::size_t s);

  ShardedDataPlane& plane_;
  Channel channel_;
  ReshardManager* reshard_ = nullptr;
  std::shared_ptr<LockManager::ReqIdSource> req_ids_;
  std::vector<std::unique_ptr<LockManager>> shards_;
};

}  // namespace raincore::data
