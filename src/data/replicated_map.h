// Replicated key-value map — the Raincore Distributed Data Service's
// shared-state primitive ("share the assignment of the virtual IPs", §3.1;
// "connection assignment information shared among the cluster", §3.2).
//
// All mutations travel as agreed-ordered multicasts, so every member applies
// them in the same total order and the replicas stay identical. A joining
// node requests a snapshot; because the snapshot reply is itself in the
// agreed stream, it linearises cleanly against concurrent updates.
//
// Split-brain merges (§2.4 strategy 2) are reconciled the same way: when a
// view gains members, the lowest-id member that survived from the previous
// view multicasts a RECONCILE snapshot; every replica — including the
// sender — adopts it at the same point in the agreed stream, so replicas
// that genuinely diverged while partitioned reconverge deterministically.
//
// Durability (DESIGN.md §5g): every mutation carries a Lamport stamp
// (writer clock + origin id tiebreak), and erases leave bounded tombstones,
// so states from different histories are mergeable by stamp order. When a
// storage::ShardStore is bound, applies are journaled at the apply point
// and recovery loads snapshot+WAL into a SHADOW state, never directly into
// the replica: a restarted founding singleton adopts the shadow, a
// rejoining node keeps it until the group's snapshot/reconcile arrives and
// then reconciles — live state wins on conflict, recovered-only keys are
// re-proposed through the agreed stream unless a newer tombstone says they
// were deleted while the node was down. A bounded own-write ledger
// re-asserts this node's latest acknowledged writes after any wholesale
// reconcile adoption (mirror of the lock manager's self-heal).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "data/channel_mux.h"
#include "storage/shard_store.h"

namespace raincore::data {

class ReplicatedMap {
 public:
  /// key, new value (nullopt = erased), origin of the mutation.
  using ChangeFn = std::function<void(const std::string& key,
                                      const std::optional<std::string>& value,
                                      NodeId origin)>;

  /// Total order over mutations of one key across histories: Lamport clock
  /// first, origin id as the deterministic tiebreak.
  struct Stamp {
    std::uint64_t lamport = 0;
    NodeId origin = 0;
    friend bool operator<(const Stamp& a, const Stamp& b) {
      if (a.lamport != b.lamport) return a.lamport < b.lamport;
      return a.origin < b.origin;
    }
  };

  /// Current owner partition of a key under live migration state. Returns
  /// the partition index the key must apply on; anything else is skipped at
  /// the apply point (and re-routed by the origin via the bounce handler).
  using OwnerFn = std::function<std::size_t(const std::string& key)>;
  /// Origin-side re-route of a skipped own mutation, with its ORIGINAL
  /// stamp so last-writer-wins resolves races identically everywhere.
  using BounceFn = std::function<void(bool erase, const std::string& key,
                                      const std::string& value, Stamp stamp)>;
  using KeyPred = std::function<bool(const std::string& key)>;
  /// Retention predicate for wholesale adoptions (snapshot / reconcile /
  /// recovered shadow): true = keep the key on this partition. Deliberately
  /// WIDER than the apply-owner while a migration window is open — a frozen
  /// range's source copy is the chunk ground truth until UNFREEZE drops it,
  /// so stripping it at a joiner sync would lose moved data.
  using RetainFn = std::function<bool(const std::string& key)>;

  ReplicatedMap(ChannelMux& mux, Channel channel);

  /// Replicated mutations (applied locally when the own multicast returns
  /// around the ring — same order as everywhere else).
  void put(const std::string& key, const std::string& value);
  void erase(const std::string& key);

  /// Local reads.
  std::optional<std::string> get(const std::string& key) const;
  bool contains(const std::string& key) const { return data_.count(key) > 0; }
  std::size_t size() const { return data_.size(); }
  const std::map<std::string, std::string>& contents() const { return data_; }

  /// True once this replica has caught up with the group state (always true
  /// for founding members; joiners flip after their snapshot arrives).
  bool synced() const { return synced_; }

  void set_change_handler(ChangeFn fn) { on_change_ = std::move(fn); }

  /// Binds a durable store: applies journal under `stream`, and the next
  /// store.recover() loads the shadow state this map reconciles from. Call
  /// before the session is founded.
  void bind_store(storage::ShardStore& store, std::uint16_t stream);

  /// Map instruments ("data.map.*"): mutation counts, sync-protocol ops,
  /// the multicast→apply convergence lag per replica, and the durability
  /// healing counts (recovered-key re-proposals, ledger re-asserts).
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  // --- elastic-resharding hooks (DESIGN.md §5j) ----------------------------

  /// Installs the migration filter for partition `self_shard`: at every
  /// apply point, mutations whose owner is another partition are skipped
  /// (all replicas compute the same owner from ring-ordered state), and the
  /// origin re-routes its own skipped mutation through `bounce`. Wholesale
  /// adoptions (snapshot/reconcile/recovered shadow) keep exactly the keys
  /// `retain` accepts — pass a predicate wider than the apply-owner while a
  /// window is open (frozen-out source copies stay until UNFREEZE).
  void set_migration_filter(std::size_t self_shard, OwnerFn owner,
                            BounceFn bounce, RetainFn retain = nullptr);

  /// Re-proposes a mutation with an explicit stamp into this partition's
  /// agreed stream (bounced writes and migration chunks ride this path —
  /// the strict-LWW apply guards make it idempotent).
  void migrate_propose(bool erase, const std::string& key,
                       const std::string& value, Stamp stamp);

  /// Serializes the live entries and tombstones matching `pred` into
  /// self-contained chunks of about kMigrationChunkBytes each (the
  /// frozen-range snapshot the coordinator replicates into the destination
  /// stream).
  std::vector<Bytes> collect_range_chunks(const KeyPred& pred) const;
  /// Applies one collect_range_chunks payload at the destination's agreed
  /// apply point: every entry goes through the strict-LWW repropose path,
  /// so re-sent chunks and races with newer destination writes resolve
  /// deterministically.
  void apply_migration_chunk(ByteReader& r);

  /// Locally drops entries/tombstones/own-write ledger rows matching
  /// `pred` (the source's copy after CUTOVER — NOT a delete: no change
  /// events fire, no tombstones are left). Returns dropped live entries.
  /// With `reroute` set, every dropped entry/tombstone is first re-proposed
  /// to its current owner through `bounce` (original stamp, so LWW makes
  /// it a no-op when the owner already has it) — scrubs use this so a
  /// stranger whose copy is FRESHER than the owner's (a partition-merge
  /// after both sides migrated independently) heals instead of vanishing.
  std::size_t drop_range(const KeyPred& pred, bool reroute = false);

  /// True when the key is absent because a tombstone shadows it (readers
  /// must not fall back to the migration source in that case).
  bool tombstoned(const std::string& key) const {
    return tombstones_.count(key) > 0;
  }

  /// Highest Lamport value this replica has seen or sent. A writer that
  /// starts routing a frozen range to the destination first advances the
  /// destination's clock past the source's ceiling, so fresh writes always
  /// outrank the frozen snapshot under LWW.
  std::uint64_t clock_ceiling() const {
    return lamport_ > send_lamport_ ? lamport_ : send_lamport_;
  }
  void advance_send_clock(std::uint64_t floor) {
    if (send_lamport_ < floor) send_lamport_ = floor;
  }

 private:
  enum class Op : std::uint8_t {
    kPut = 1,
    kErase = 2,
    kSyncRequest = 3,
    kSnapshot = 4,
    kReconcile = 5,
    // Recovery re-proposals carry their ORIGINAL durable stamp (not a fresh
    // one) and apply under a last-writer-wins guard. Two nodes recovering
    // different durable generations of the same key can then both
    // re-propose; the genuinely newer mutation wins regardless of the order
    // the proposals land in the agreed stream.
    kReproposePut = 6,
    kReproposeErase = 7,
  };

  struct ShadowEntry {
    std::string value;
    Stamp stamp;
  };
  struct OwnWrite {
    Stamp stamp;
    std::optional<std::string> value;  ///< nullopt = erase
  };

  /// Bounds for the two unbounded-history side tables (FIFO eviction; the
  /// deques record insertion order). Past the bound the map silently
  /// forgets oldest deletions/own-writes — the healing guarantees then
  /// cover only the most recent entries, which is the documented contract.
  static constexpr std::size_t kMaxTombstones = 8192;
  static constexpr std::size_t kMaxOwnWrites = 2048;

  void on_message(NodeId origin, const Slice& payload);
  void on_view(const session::View& v);
  void apply_put(const std::string& key, std::string value, NodeId origin,
                 Stamp stamp);
  void apply_erase(const std::string& key, NodeId origin, Stamp stamp);
  void send_repropose(Op op, const std::string& key, const std::string& value,
                      Stamp stamp);
  void apply_repropose_put(const std::string& key, std::string value,
                           Stamp stamp);
  void apply_repropose_erase(const std::string& key, Stamp stamp);
  Stamp next_send_stamp();
  void add_tombstone(const std::string& key, Stamp stamp);
  void note_own_write(const std::string& key, Stamp stamp,
                      std::optional<std::string> value);
  void journal(Op op, const std::string& key, const std::string& value,
               Stamp stamp);
  /// Reusable scratch buffer for journal() — cleared per record, capacity
  /// retained, so the per-apply durability hot path is allocation-free.
  ByteWriter journal_w_;
  void write_state(ByteWriter& w) const;
  bool read_state(ByteReader& r, std::map<std::string, std::string>& data,
                  std::map<std::string, Stamp>& stamps,
                  std::map<std::string, Stamp>& tombs,
                  std::uint64_t& clock) const;
  void adopt_shadow_as_state();
  void reconcile_shadow();
  void reassert_own_writes();
  /// True when the migration filter says `key` applies on this partition.
  bool owned_here(const std::string& key) const {
    return !owner_fn_ || owner_fn_(key) == self_shard_;
  }
  /// True when a wholesale adoption may keep `key` here (see RetainFn).
  bool retained_here(const std::string& key) const {
    return retain_fn_ ? retain_fn_(key) : owned_here(key);
  }
  /// Drops foreign keys from a wholesale adoption before it is installed.
  void strip_foreign(std::map<std::string, std::string>& data,
                     std::map<std::string, Stamp>& stamps,
                     std::map<std::string, Stamp>& tombs) const;
  /// Re-proposes every local entry/tombstone the retention predicate no
  /// longer accepts to its current owner (original stamps). Called before a
  /// wholesale adoption replaces local state: a stranger we hold may be
  /// FRESHER than the owner's copy after a partition merge, and silently
  /// discarding it with the replaced table would lose an acked write.
  void reroute_strangers();

  ChannelMux& mux_;
  Channel channel_;
  std::map<std::string, std::string> data_;
  std::map<std::string, Stamp> stamps_;  ///< stamp of each live entry
  std::map<std::string, Stamp> tombstones_;
  std::deque<std::string> tombstone_order_;
  std::uint64_t lamport_ = 0;       ///< max stamp applied so far
  std::uint64_t send_lamport_ = 0;  ///< last stamp this node sent
  bool synced_ = false;
  bool was_member_ = false;
  bool sync_requested_ = false;
  std::uint64_t generation_ = 0;  ///< session incarnation we belong to
  /// Members of the previous view we belonged to — used to detect
  /// member-gaining view changes (merges) that need a RECONCILE.
  std::vector<NodeId> prev_members_;
  /// Joiner-side replay buffer: the snapshot covers exactly the operations
  /// ordered before our kSyncRequest, but it is *attached* by the responder
  /// one round later — so every op we deliver between sending the request
  /// and receiving the snapshot must be replayed on top of it. The retained
  /// slices keep their token-frame storage alive past delivery (ref-count).
  std::vector<std::pair<NodeId, Slice>> replay_;
  /// Recovered-but-not-yet-reconciled state (loaded by store.recover()).
  /// Survives the generation-change wipe: it belongs to the NEXT
  /// incarnation, not the previous one.
  std::map<std::string, ShadowEntry> shadow_;
  std::map<std::string, Stamp> shadow_tombs_;
  std::uint64_t shadow_clock_ = 0;
  bool shadow_valid_ = false;
  /// This node's latest write per key, re-asserted after a reconcile
  /// adoption wipes state this node already saw applied.
  std::map<std::string, OwnWrite> my_writes_;
  std::deque<std::string> my_writes_order_;
  storage::ShardStore* store_ = nullptr;
  std::uint16_t stream_ = 0;
  ChangeFn on_change_;
  std::size_t self_shard_ = 0;
  OwnerFn owner_fn_;  ///< unset = no migration filtering
  BounceFn bounce_fn_;
  RetainFn retain_fn_;  ///< unset = retain exactly the apply-owned keys
  metrics::Registry metrics_;
  Counter& puts_ = metrics_.counter("data.map.puts");
  Counter& erases_ = metrics_.counter("data.map.erases");
  Counter& sync_ops_ = metrics_.counter("data.map.sync_ops");
  /// Recovered-only keys re-proposed into the live stream after rejoin.
  Counter& reproposed_ = metrics_.counter("data.map.reproposed");
  /// Own writes re-asserted after a reconcile adoption lost them.
  Counter& reasserted_ = metrics_.counter("data.map.reasserted");
  /// Mutations skipped at the apply point because the key migrated away
  /// (the origin re-routes its own through the bounce handler).
  Counter& bounced_ = metrics_.counter("data.map.bounced");
  /// Entries+tombstones applied from migration chunks (LWW losers count).
  Counter& migrated_in_ = metrics_.counter("data.map.migrated_in");
  /// Mutation multicast (put/erase) to local apply, per replica: how far
  /// this replica lags the origin's write (§3 shared-state freshness).
  Histogram& convergence_lag_ =
      metrics_.histogram("data.map.convergence_lag_ns");
};

}  // namespace raincore::data
