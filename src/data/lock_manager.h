// Raincore distributed lock manager (paper §2.7): named data locks built on
// the session service. "The data locks ... can be associated with one or
// more shared data items, and can be owned by a node without requiring the
// node to remain in the EATING state."
//
// Every replica applies ACQUIRE/RELEASE operations in the agreed multicast
// order (which the token — the master lock — serialises), so all lock
// tables are identical. Failure handling is deterministic too: on a view
// change the lowest-id member multicasts an EPOCH record carrying the new
// member list *and its full lock table*; every replica adopts that table
// (purged of dead holders/waiters) at the same point in the operation
// stream. The table-replacement semantics make replicas reconverge even
// after a split-brain merge, where the two sides granted locks
// independently (§2.4 strategy 2) and their tables genuinely diverged.
// Requests that an adopted table does not know about are re-asserted by
// their requester through the agreed stream; ownerships the requester
// already released are cancelled the same way, so the table self-heals.
//
// Durability (DESIGN.md §5g): with a storage::ShardStore bound, every
// applied acquire/release/epoch journals at the apply point and the table
// (plus the request-id counter, so a restarted node never reuses ids) is
// recovered into a shadow on restart. A restarted founding singleton
// adopts the shadow table; the very next EPOCH then purges entries whose
// holders are not members — locks are leases scoped to live incarnations,
// so recovery restores the *table* and the epoch protocol restores the
// *truth*, with my_outstanding_ re-assertion healing the rest.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "data/channel_mux.h"
#include "storage/shard_store.h"

namespace raincore::data {

class LockManager {
 public:
  using GrantFn = std::function<void(const std::string& name)>;
  using KeyPred = std::function<bool(const std::string& name)>;

  /// Node-global request-id counter shared by every partition of a
  /// ShardedLockManager, so a request can migrate between partitions
  /// without id collisions (ids stay unique per node across the plane).
  struct ReqIdSource {
    std::uint64_t next = 1;
  };

  LockManager(ChannelMux& mux, Channel channel);

  /// Shares the request-id counter (call before any acquire).
  void share_req_ids(std::shared_ptr<ReqIdSource> ids);

  /// Requests the named lock; on_granted fires when this node becomes the
  /// owner (possibly immediately after the own request circles the ring).
  void acquire(const std::string& name, GrantFn on_granted = {});

  /// Releases a lock this node owns (no-op otherwise, queued request is
  /// withdrawn if still waiting).
  void release(const std::string& name);

  bool held_by_me(const std::string& name) const;
  std::optional<NodeId> owner(const std::string& name) const;
  std::size_t waiters(const std::string& name) const;

  /// Named views into the lock registry ("data.lock.*" instruments).
  struct Stats {
    explicit Stats(metrics::Registry& r)
        : grants(r.counter("data.lock.grants")),
          releases(r.counter("data.lock.releases")),
          purged_owners(r.counter("data.lock.purged_owners")),
          purged_waiters(r.counter("data.lock.purged_waiters")),
          wait_ns(r.histogram("data.lock.wait_ns")) {}
    Counter &grants, &releases, &purged_owners, &purged_waiters;
    Histogram& wait_ns;  ///< acquire() → local grant latency
  };
  const Stats& stats() const { return stats_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Binds a durable store: applies journal under `stream`, and the next
  /// store.recover() loads the shadow table adopted on a founding restart.
  void bind_store(storage::ShardStore& store, std::uint16_t stream);

  // --- elastic-resharding hooks (DESIGN.md §5j) ----------------------------

  /// What every replica does with an applied op for `name` right now —
  /// computed from ring-ordered migration state, so all replicas decide
  /// identically at the same stream point.
  enum class RouteAction : std::uint8_t {
    kApply = 0,   ///< name lives on this partition: apply normally
    kBounce = 1,  ///< migrated away: skip (origin re-routes via bounce fn)
    kBuffer = 2,  ///< incoming range, snapshot not yet CUT: hold in order
  };
  using ClassifyFn = std::function<RouteAction(const std::string& name)>;
  /// Origin-side re-route of a skipped own op (op is the raw Op value).
  using LockBounceFn = std::function<void(std::uint8_t op,
                                          const std::string& name,
                                          std::uint64_t req)>;
  /// `retain` widens wholesale epoch adoption: a kBounce-classified name it
  /// accepts is kept anyway (a frozen-out source row is the migration ground
  /// truth until UNFREEZE extracts it — stripping it at a merge would lose
  /// the lock state mid-handoff). Unset = strip every kBounce name.
  void set_migration_filter(ClassifyFn classify, LockBounceFn bounce,
                            KeyPred retain = nullptr);

  /// Serializes the lock table rows matching `pred` (the frozen-range
  /// snapshot the coordinator replicates into the destination stream).
  std::vector<Bytes> collect_range_chunks(const KeyPred& pred) const;
  /// Installs one chunk at the destination's apply point (journals as an
  /// epoch record; grants fire where this node already heads a queue —
  /// after absorb_local_requests registered the callbacks).
  void apply_migration_chunk(ByteReader& r);
  /// Re-applies the ops buffered while the range was incoming-but-uncut,
  /// in their original agreed order (call right after the chunk installs).
  void flush_buffered(const KeyPred& pred);
  /// Drops table rows matching `pred` on the source after CUTOVER (no
  /// release events, journals the shrunk table). Returns dropped rows.
  std::size_t drop_range(const KeyPred& pred);

  /// This node's local, non-replicated bookkeeping for one outstanding or
  /// waited-on request — moved between partitions when its lock migrates.
  struct LocalRequest {
    std::string name;
    std::uint64_t req = 0;
    GrantFn grant;         ///< pending grant callback (may be empty)
    bool outstanding = false;  ///< in my_outstanding_ (acquired, unreleased)
    std::optional<Time> wait_since;
  };
  std::vector<LocalRequest> extract_local_requests(const KeyPred& pred);
  void absorb_local_requests(std::vector<LocalRequest> reqs);

  /// Re-sends an acquire with an EXISTING request id into this partition's
  /// stream (bounced acquires keep their identity across partitions).
  void resend_acquire(const std::string& name, std::uint64_t req);
  /// Sends a release of request `req` without touching local bookkeeping
  /// (bounce path).
  void send_release_raw(const std::string& name, std::uint64_t req);

 private:
  enum class Op : std::uint8_t {
    kAcquire = 1,
    kRelease = 2,
    kEpoch = 3,
  };

  /// One queued request: grants are tied to the request identity, not just
  /// the node — a node that re-acquires while its release is still in
  /// flight must not be granted off its *previous* ownership.
  struct Waiter {
    NodeId node = kInvalidNode;
    std::uint64_t req = 0;
  };
  struct LockState {
    std::deque<Waiter> queue;  ///< front = owner
  };

  void on_message(NodeId origin, const Slice& payload);
  void on_view(const session::View& v);
  void apply_acquire(const std::string& name, NodeId node, std::uint64_t req);
  void apply_release(const std::string& name, NodeId node, std::uint64_t req);
  void apply_epoch(const std::vector<NodeId>& members,
                   std::map<std::string, LockState>&& table);
  void maybe_grant(const std::string& name);
  void send_op(Op op, const std::string& name, std::uint64_t req = 0);
  void write_table(ByteWriter& w,
                   const std::map<std::string, LockState>& table) const;
  bool read_table(ByteReader& r, std::map<std::string, LockState>& table) const;
  /// Reusable scratch buffer for journal_op() (capacity retained across
  /// records — the apply-point hot path does not allocate).
  ByteWriter journal_w_;
  void journal_op(Op op, const std::string& name, NodeId node,
                  std::uint64_t req);
  void journal_epoch();

  ChannelMux& mux_;
  Channel channel_;
  std::map<std::string, LockState> locks_;
  /// Member set as of the last applied EPOCH (in-stream view). Operations
  /// from nodes outside it are ignored deterministically.
  std::set<NodeId> epoch_members_;
  bool any_epoch_ = false;
  std::uint64_t generation_ = 0;  ///< session incarnation we belong to
  std::uint64_t last_epoch_view_sent_ = 0;
  /// Request ids come from the (possibly shared) node-global source.
  std::shared_ptr<ReqIdSource> req_ids_ = std::make_shared<ReqIdSource>();
  /// Pending grant callbacks keyed by (lock name, request id).
  std::map<std::pair<std::string, std::uint64_t>, GrantFn> grant_fns_;
  /// Local mirror of this node's outstanding requests (acquired, not yet
  /// released), oldest first. Used after adopting an EPOCH table to
  /// re-assert requests the table lost and to cancel ownerships it
  /// resurrected after we already released them.
  std::map<std::string, std::deque<std::uint64_t>> my_outstanding_;
  /// acquire() timestamps of this node's requests, for the wait histogram.
  std::map<std::pair<std::string, std::uint64_t>, Time> wait_since_;
  /// Recovered-but-not-yet-adopted table (loaded by store.recover()).
  std::map<std::string, LockState> shadow_locks_;
  std::uint64_t shadow_next_req_ = 0;
  bool shadow_valid_ = false;
  storage::ShardStore* store_ = nullptr;
  std::uint16_t stream_ = 0;
  /// Migration filter (unset = no filtering) and the destination-side
  /// holding pen for ops that arrived before the range's snapshot CUT.
  ClassifyFn classify_;
  LockBounceFn bounce_fn_;
  KeyPred retain_;  ///< unset = strip every kBounce name at epoch adoption
  struct BufferedOp {
    std::uint8_t op = 0;
    std::string name;
    NodeId node = kInvalidNode;
    std::uint64_t req = 0;
  };
  std::deque<BufferedOp> buffered_;
  metrics::Registry metrics_;
  Stats stats_{metrics_};
};

}  // namespace raincore::data
