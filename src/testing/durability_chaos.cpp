#include "testing/durability_chaos.h"

#include <algorithm>

#include "common/log.h"
#include "testing/oracles.h"

namespace raincore::testing {

namespace {
constexpr const char* kMod = "dchaos";

constexpr data::Channel kMapChannel = 1;
constexpr data::Channel kLockChannel = 2;

/// Client retry timeout: a pending op older than this is voided.
constexpr Time kOpTimeout = millis(2500);
/// Ack sweep cadence.
constexpr Time kSweepEvery = millis(2);
/// Crash/partition length of the targeted migration fault.
constexpr Time kMigrationFaultDuration = millis(250);

/// The Cluster's durable plane: `storage` with its stores under `root`.
Cluster::Plane durable_plane(const DurabilityConfig& d,
                             session::SessionConfig ring, std::string root) {
  Cluster::Plane plane{d.n_shards, std::move(ring), d.storage};
  plane.storage.dir = std::move(root);
  return plane;
}

}  // namespace

DurabilityChaosCluster::DurabilityChaosCluster(std::vector<NodeId> ids,
                                               std::string root_dir,
                                               ChaosConfig chaos_cfg,
                                               DurabilityConfig dur_cfg,
                                               session::SessionConfig session_cfg,
                                               net::SimNetConfig net_cfg)
    : c_(std::move(ids),
         durable_plane(dur_cfg, std::move(session_cfg), root_dir), net_cfg),
      engine_(c_.enable_chaos(chaos_cfg)),
      root_dir_(std::move(root_dir)),
      dur_cfg_(dur_cfg) {
  Rng setup_rng(chaos_cfg.seed ^ 0x2545f491u);
  for (NodeId id : c_.ids()) {
    data::ShardedDataPlane& plane = c_.plane(id);
    Stack& st = stacks_[id];
    st.map = std::make_unique<data::ShardedMap>(plane, kMapChannel);
    st.locks = std::make_unique<data::ShardedLockManager>(plane, kLockChannel);
    data::ReshardConfig rcfg;
    rcfg.initial_shards = dur_cfg_.n_shards;
    st.mgr = std::make_unique<data::ReshardManager>(plane, *st.map,
                                                    *st.locks, rcfg);
    st.traffic_rng = setup_rng.fork();
    // Shard-aware ack tracking: during a migration window a write can bounce
    // and apply on a different shard than it routed to at issue time, and
    // the durable-LSN gate must watch the store it actually landed in.
    st.map->set_shard_change_handler(
        [this, id](std::size_t shard, const std::string& key,
                   const std::optional<std::string>& value, NodeId origin) {
          on_map_change(id, shard, key, value, origin);
        });
  }
  engine_.set_crash_hook([this](NodeId id) { crash_node(id); });
  engine_.set_restart_hook([this](NodeId id) { restart_node(id); });
  engine_.set_shard_hooks(
      dur_cfg_.n_shards, [this](std::size_t s) { crash_shard(s); },
      [this](std::size_t s) { restart_shard(s); });
}

DurabilityChaosCluster::~DurabilityChaosCluster() {
  traffic_on_ = false;
  net::EventLoop& loop = c_.net().loop();
  if (sweep_timer_) loop.cancel(sweep_timer_);
  if (resize_timer_) loop.cancel(resize_timer_);
  if (watch_timer_) loop.cancel(watch_timer_);
  for (auto& [id, st] : stacks_) {
    if (st.traffic_timer) loop.cancel(st.traffic_timer);
  }
}

bool DurabilityChaosCluster::bootstrap(Time timeout) {
  if (!c_.found_all()) {
    for (NodeId id : c_.ids()) {
      data::ShardedDataPlane& plane = c_.plane(id);
      for (std::size_t s = 0; s < plane.shard_count(); ++s) {
        if (plane.store(s)->is_open()) continue;
        violation("bootstrap: node " + std::to_string(id) +
                  " failed to open its stores under " + root_dir_);
        return false;
      }
    }
    return false;
  }
  if (run_until(c_.net().loop(), timeout, [this] {
        for (auto& [id, st] : stacks_) {
          if (!c_.plane(id).all_converged(c_.ids().size()) ||
              !st.map->synced()) {
            return false;
          }
        }
        return true;
      })) {
    return true;
  }
  violation("bootstrap: not every shard ring converged");
  return false;
}

// --- client traffic + ack tracking -----------------------------------------

void DurabilityChaosCluster::start_traffic(NodeId id) {
  Stack& stack = stacks_.at(id);
  Time gap =
      millis(3) + static_cast<Time>(stack.traffic_rng.next_below(millis(5)));
  stack.traffic_timer = c_.net().loop().schedule(gap, [this, id] {
    Stack& st = stacks_.at(id);
    st.traffic_timer = 0;
    if (!traffic_on_) return;
    if (!st.crashed) {
      issue_op(id);
      st.mgr->tick();  // coordinator re-drive rides the traffic cadence
    }
    start_traffic(id);
  });
}

void DurabilityChaosCluster::issue_op(NodeId id) {
  Stack& st = stacks_.at(id);
  const std::size_t slot = st.traffic_rng.next_below(dur_cfg_.slots_per_node);
  const std::string key =
      "d" + std::to_string(id) + ":" + std::to_string(slot);
  if (pending_.count(key)) return;  // one outstanding op per slot
  const std::size_t shard = st.map->write_shard_of(key);
  if (st.shards_down.count(shard)) return;
  session::SessionNode& ring = c_.plane(id).ring(shard);
  if (!ring.started() || !ring.view().has(id)) return;
  if (!st.map->shard(shard).synced()) return;

  Pending p;
  p.op_id = next_op_id_++;
  p.node = id;
  p.key = key;
  p.shard = shard;
  p.issued_at = c_.net().now();
  p.saw_migration = migration_open();

  OpRecord op;
  op.id = p.op_id;
  // Erase only a key whose newest issued op was a put: a never-written key
  // exercises nothing, and erasing an already-erased key is a no-op the map
  // never reports (no change callback fires), so the client would sit on a
  // write that cannot ack until the timeout voids it.
  op.is_erase = !history_[key].empty() && !history_[key].back().is_erase &&
                st.traffic_rng.chance(0.25);
  if (!op.is_erase) op.value = "v" + std::to_string(p.op_id) + "-" + key;
  p.applied = false;
  history_[key].push_back(op);
  pending_.emplace(key, p);
  if (op.is_erase) {
    st.map->erase(key);
  } else {
    st.map->put(key, op.value);
  }
  // Light lock traffic so the lock journal/recovery path sees the same
  // storms (exclusion itself is judged by the lock suite, not here).
  if (st.traffic_rng.chance(0.1)) {
    st.locks->acquire("lk:" + key, [this, id](const std::string& name) {
      c_.net().loop().schedule(millis(1), [this, id, name] {
        Stack& holder = stacks_.at(id);
        if (!holder.crashed) holder.locks->release(name);
      });
    });
  }
}

void DurabilityChaosCluster::on_map_change(
    NodeId id, std::size_t shard, const std::string& key,
    const std::optional<std::string>& value, NodeId origin) {
  if (key.empty() || origin != id) return;
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.node != id) return;
  Pending& p = it->second;
  if (p.applied) return;
  const OpRecord& op = history_.at(key).back();
  const bool matches = op.is_erase ? !value.has_value()
                                   : (value.has_value() && *value == op.value);
  if (!matches) return;
  p.applied = true;
  // A bounced write applies on its destination shard, not the one it routed
  // to at issue time — the durable-LSN gate must watch the store that holds
  // the journal record.
  p.shard = shard;
  // The journal record was appended inside the apply, just before this
  // handler ran — the store's head LSN IS that record's LSN.
  p.applied_lsn = c_.plane(id).store(shard)->lsn();
}

void DurabilityChaosCluster::ack(Pending& p) {
  auto& ops = history_.at(p.key);
  for (auto rit = ops.rbegin(); rit != ops.rend(); ++rit) {
    if (rit->id == p.op_id) {
      rit->acked = true;
      break;
    }
  }
  ++acked_ops_;
  if (p.saw_migration || migration_open()) {
    ack_lat_migration_.push_back(to_millis(c_.net().now() - p.issued_at));
  } else {
    ack_lat_steady_.push_back(to_millis(c_.net().now() - p.issued_at));
  }
}

bool DurabilityChaosCluster::migration_open() {
  for (const auto& [id, st] : stacks_) {
    if (!st.crashed && c_.plane(id).vrouter().migrating()) return true;
  }
  return false;
}

void DurabilityChaosCluster::sweep_acks(NodeId id) {
  data::ShardedDataPlane& plane = c_.plane(id);
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.node == id && p.applied &&
        plane.store(p.shard)->durable_lsn() >= p.applied_lsn) {
      ack(p);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void DurabilityChaosCluster::sweep_acks_shard(std::size_t shard) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.shard == shard && !stacks_.at(p.node).crashed && p.applied &&
        c_.plane(p.node).store(p.shard)->durable_lsn() >= p.applied_lsn) {
      ack(p);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void DurabilityChaosCluster::void_pending_node(NodeId id) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.node == id) {
      ++voided_ops_;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void DurabilityChaosCluster::void_pending_shard(std::size_t shard) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.shard == shard) {
      ++voided_ops_;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void DurabilityChaosCluster::void_stale_pending() {
  // A client whose op never resolves times out and frees the slot for a
  // retry; the op's effects may or may not survive, which the oracle
  // allows — exactly the real-world unknown-outcome window.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (c_.net().now() - it->second.issued_at > kOpTimeout) {
      ++voided_ops_;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void DurabilityChaosCluster::schedule_sweep() {
  sweep_timer_ = c_.net().loop().schedule(kSweepEvery, [this] {
    sweep_timer_ = 0;
    if (!traffic_on_) return;
    for (NodeId id : c_.ids()) {
      if (!stacks_.at(id).crashed) sweep_acks(id);
    }
    void_stale_pending();
    schedule_sweep();
  });
}

// --- chaos hooks ------------------------------------------------------------

void DurabilityChaosCluster::crash_node(NodeId id) {
  // Anything durable at the power cut counts as acked — drop_unsynced only
  // discards the tail AFTER the durable LSN, so sweeping first is exact.
  sweep_acks(id);
  void_pending_node(id);
  c_.crash(id);
  stacks_.at(id).crashed = true;
}

void DurabilityChaosCluster::restart_node(NodeId id) {
  Stack& st = stacks_.at(id);
  data::ShardedDataPlane& plane = c_.plane(id);
  st.crashed = false;
  c_.mux(id).set_enabled(true);
  // Shards that are down CLUSTER-WIDE stay down on this node too; the
  // shard-restart hook will bring them back everywhere at once.
  st.shards_down = global_shards_down_;
  for (std::size_t s = 0; s < plane.shard_count(); ++s) {
    if (global_shards_down_.count(s)) continue;
    plane.open_store(s);
    plane.recover_store(s);  // shadow ready before the ring forms
  }
  // Rebuild the migration window from the recovered filter journals before
  // any ring re-forms — a node that died mid-migration must classify its
  // first post-restart applies with the journaled state, not the stale
  // in-memory one.
  st.mgr->after_recovery();
  for (std::size_t s = 0; s < plane.shard_count(); ++s) {
    if (global_shards_down_.count(s)) continue;
    if (!plane.ring(s).started()) plane.ring(s).found();
  }
}

void DurabilityChaosCluster::crash_shard(std::size_t shard) {
  global_shards_down_.insert(shard);
  sweep_acks_shard(shard);
  void_pending_shard(shard);
  for (auto& [id, st] : stacks_) {
    data::ShardedDataPlane& plane = c_.plane(id);
    if (st.crashed || st.shards_down.count(shard)) continue;
    if (shard >= plane.shard_count()) continue;
    plane.crash_store(shard);
    plane.ring(shard).stop();
    st.shards_down.insert(shard);
  }
}

void DurabilityChaosCluster::restart_shard(std::size_t shard) {
  global_shards_down_.erase(shard);
  for (auto& [id, st] : stacks_) {
    data::ShardedDataPlane& plane = c_.plane(id);
    if (st.crashed || st.shards_down.count(shard) == 0) continue;
    plane.open_store(shard);
    plane.recover_store(shard);
    st.mgr->after_recovery();
    if (!plane.ring(shard).started()) plane.ring(shard).found();
    st.shards_down.erase(shard);
  }
}

// --- live resize ------------------------------------------------------------

void DurabilityChaosCluster::schedule_resize(Time delay) {
  resize_timer_ = c_.net().loop().schedule(delay, [this] {
    resize_timer_ = 0;
    if (!traffic_on_ || resize_requested_) return;
    ensure_resize_requested();
    if (!resize_requested_) schedule_resize(millis(50));  // everyone down
  });
}

void DurabilityChaosCluster::ensure_resize_requested() {
  if (dur_cfg_.resize_to <= dur_cfg_.n_shards) return;
  if (resize_requested_) {
    // The request can die with its proposer (crashed, or stranded on the
    // doomed side of a split). Re-ask when nothing anywhere shows a trace
    // of it — start_resize is ignored while in flight or once grown, so
    // re-requesting is idempotent.
    for (auto& [id, st] : stacks_) {
      if (st.mgr->migrating() || st.mgr->epoch() > 0 ||
          c_.plane(id).shard_count() > dur_cfg_.n_shards) {
        return;
      }
    }
    if (c_.net().now() - resize_requested_at_ < millis(400)) return;
  }
  for (auto& [id, st] : stacks_) {
    if (st.crashed) continue;
    st.mgr->start_resize(dur_cfg_.resize_to);
    resize_requested_ = true;
    resize_requested_at_ = c_.net().now();
    return;
  }
}

void DurabilityChaosCluster::schedule_migration_watch() {
  watch_timer_ = c_.net().loop().schedule(millis(2), [this] {
    watch_timer_ = 0;
    if (!traffic_on_) return;
    ensure_resize_requested();
    if (migration_open()) {
      if (mig_first_open_ == 0) mig_first_open_ = c_.net().now();
      mig_last_open_ = c_.net().now();
    }
    watch_migration_fault();
    schedule_migration_watch();
  });
}

void DurabilityChaosCluster::watch_migration_fault() {
  if (migration_fault_fired_ || !engine_.running()) return;
  if (dur_cfg_.migration_fault == MigrationFault::kNone) return;
  // Observe the coordinator's routing window (lowest live id drives).
  NodeId coord = kInvalidNode;
  for (const auto& [id, st] : stacks_) {
    if (!st.crashed) {
      coord = id;
      break;
    }
  }
  if (coord == kInvalidNode) return;
  Stack& st = stacks_.at(coord);
  const data::VersionedRouter& vr = c_.plane(coord).vrouter();
  if (!vr.migrating()) return;
  bool any_frozen = false;
  bool any_cut = false;
  for (const auto& [r, rs] : vr.ranges()) {
    if (rs == data::RangeState::kFrozen) any_frozen = true;
    if (rs == data::RangeState::kCut) any_cut = true;
  }
  const std::vector<NodeId>& ids = c_.ids();
  const Time dur = kMigrationFaultDuration;
  switch (dur_cfg_.migration_fault) {
    case MigrationFault::kKillSourceMidSnapshot: {
      // Chunks have left the coordinator but the range is not yet cut: the
      // replica the snapshot is being read from dies mid-transfer.
      const std::uint64_t chunks = st.mgr->metrics()
                                       .counter("data.reshard.chunks_sent")
                                       .value();
      if (any_frozen && chunks > 0) {
        migration_fault_fired_ = engine_.inject_crash(coord, dur);
      }
      break;
    }
    case MigrationFault::kKillDestBeforeCutover: {
      if (!any_frozen) break;
      // Every node replicates the destination ring; kill the one farthest
      // from the coordinator so the ring loses a destination replica while
      // the CUTOVER record is still in flight.
      for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
        if (*it != coord && !stacks_.at(*it).crashed) {
          migration_fault_fired_ = engine_.inject_crash(*it, dur);
          break;
        }
      }
      break;
    }
    case MigrationFault::kPartitionDuringUnfreeze: {
      if (!any_cut) break;
      std::vector<NodeId> half(ids.begin(),
                               ids.begin() + (ids.size() + 1) / 2);
      migration_fault_fired_ = engine_.inject_partition(std::move(half), dur);
      break;
    }
    case MigrationFault::kNone:
      break;
  }
}

// --- phases -----------------------------------------------------------------

void DurabilityChaosCluster::run_chaos(Time duration) {
  traffic_on_ = true;
  for (NodeId id : c_.ids()) start_traffic(id);
  schedule_sweep();
  if (dur_cfg_.resize_to > dur_cfg_.n_shards) {
    schedule_resize(dur_cfg_.resize_at);
    schedule_migration_watch();
  }
  engine_.start();
  Time end = c_.net().now() + duration;
  while (c_.net().now() < end) c_.net().loop().run_for(millis(10));
}

void DurabilityChaosCluster::heal_and_check(Time converge_timeout) {
  engine_.stop_and_heal();
  auto converged = [&] {
    // An in-flight migration must finish before the oracles run: every
    // node idle, agreeing on the final epoch and shard count, and every
    // ROUTER actually landed on the final table (a node can retire its
    // partitions yet keep a stale current table after an ill-timed crash —
    // the tick below lets the manager's self-heal paths run).
    const NodeId ref = c_.ids().front();
    const std::size_t k = c_.plane(ref).shard_count();
    const std::uint64_t ep = stacks_.at(ref).mgr->epoch();
    if (resize_requested_ && k != dur_cfg_.resize_to) return false;
    for (auto& [id, st] : stacks_) {
      const data::ShardedDataPlane& plane = c_.plane(id);
      if (!st.crashed) st.mgr->tick();
      if (st.mgr->migrating()) return false;
      if (plane.shard_count() != k || st.mgr->epoch() != ep) return false;
      if (plane.vrouter().migrating() ||
          plane.vrouter().current().shard_count() != k) {
        return false;
      }
      if (!plane.all_converged(c_.ids().size()) || !st.map->synced()) {
        return false;
      }
    }
    return true;
  };
  run_until_stable(c_.net().loop(), converge_timeout, converged);
  // Judged by a fresh call even after a stable window: each call ticks
  // every ReshardManager, and the round's schedule includes this tick.
  if (!converged()) {
    violation("heal: not every shard ring re-converged to the full set");
  }
  final_shards_ = c_.plane(c_.ids().front()).shard_count();
  final_epoch_ = stacks_.at(c_.ids().front()).mgr->epoch();
  if (resize_requested_ && final_shards_ != dur_cfg_.resize_to) {
    violation("resize: cluster healed at " + std::to_string(final_shards_) +
              " shards, epoch " + std::to_string(final_epoch_) +
              " — the requested resize to " +
              std::to_string(dur_cfg_.resize_to) + " never completed");
  }
  // Quiesce the clients, let re-proposals and re-assertions circulate.
  traffic_on_ = false;
  c_.net().loop().run_for(millis(400));
  // Promote everything still buffered to durable, take the final acks, and
  // write off whatever never resolved.
  for (NodeId id : c_.ids()) c_.plane(id).flush_storage();
  for (NodeId id : c_.ids()) sweep_acks(id);
  const std::size_t unresolved = pending_.size();
  voided_ops_ += unresolved;
  pending_.clear();
  RC_INFO(kMod, "final sweep: %llu acked, %llu voided (%lu at heal)",
          static_cast<unsigned long long>(acked_ops_),
          static_cast<unsigned long long>(voided_ops_),
          static_cast<unsigned long>(unresolved));
  check_map_convergence(c_.ids());
  check_ownership();
  run_oracle();
}

void DurabilityChaosCluster::check_map_convergence(
    const std::vector<NodeId>& live) {
  // Wait until every shard's replicas agree everywhere, then assert it.
  const std::size_t n_shards = c_.plane(live.front()).shard_count();
  run_until(c_.net().loop(), millis(6000), [&] {
    const Stack& ref = stacks_.at(live.front());
    for (NodeId id : live) {
      const Stack& st = stacks_.at(id);
      if (st.map->shard_count() != n_shards) return false;
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (!st.map->shard(s).synced()) return false;
        if (st.map->shard(s).contents() != ref.map->shard(s).contents()) {
          return false;
        }
      }
    }
    return true;
  });
  const Stack& ref = stacks_.at(live.front());
  for (NodeId id : live) {
    const Stack& st = stacks_.at(id);
    if (st.map->shard_count() != n_shards) {
      violation("convergence: node " + std::to_string(id) + " holds " +
                std::to_string(st.map->shard_count()) +
                " partitions, expected " + std::to_string(n_shards));
      continue;
    }
    for (std::size_t s = 0; s < n_shards; ++s) {
      if (!st.map->shard(s).synced()) {
        violation("convergence: node " + std::to_string(id) + " shard " +
                  std::to_string(s) + " never synced");
      } else if (st.map->shard(s).contents() !=
                 ref.map->shard(s).contents()) {
        violation("convergence: node " + std::to_string(id) + " shard " +
                  std::to_string(s) + " diverged from node " +
                  std::to_string(live.front()) + " (" +
                  std::to_string(st.map->shard(s).size()) + " vs " +
                  std::to_string(ref.map->shard(s).size()) + " entries)");
      }
    }
  }
}

void DurabilityChaosCluster::check_ownership() {
  // Ownership uniqueness after a completed resize: every surviving key
  // lives on exactly the shard the FINAL routing table owns it to. A key
  // also present on its old home is a double-apply (the unfreeze never
  // dropped it); a key only on the old home never migrated. Replicas are
  // already known identical (check_map_convergence), so one node suffices.
  const NodeId ref = c_.ids().front();
  const data::ShardedDataPlane& ref_plane = c_.plane(ref);
  if (ref_plane.vrouter().migrating()) return;  // heal violation already
  const data::ShardRouter& router = ref_plane.router();
  bool any = false;
  for (std::size_t s = 0; s < ref_plane.shard_count(); ++s) {
    for (const auto& [key, value] : stacks_.at(ref).map->shard(s).contents()) {
      const std::size_t owner = router.shard_of(key);
      if (owner != s) {
        any = true;
        violation("ownership: key '" + key + "' resides on shard " +
                  std::to_string(s) + " but the final table (k=" +
                  std::to_string(router.shard_count()) + ") owns it to " +
                  std::to_string(owner));
      }
    }
  }
  if (any) {
    for (const auto& [id, st] : stacks_) {
      const data::ShardedDataPlane& plane = c_.plane(id);
      RC_WARN(kMod,
              "  node %u: rings=%lu cur_k=%lu migrating=%d epoch=%llu",
              id, static_cast<unsigned long>(plane.shard_count()),
              static_cast<unsigned long>(
                  plane.vrouter().current().shard_count()),
              st.mgr->migrating() ? 1 : 0,
              static_cast<unsigned long long>(st.mgr->epoch()));
    }
  }
}

void DurabilityChaosCluster::run_oracle() {
  // Judge the converged final state (reference node) against every key's
  // issue history. See the header for the acked-loss / phantom rules.
  std::map<std::string, std::string> finals;
  data::ShardedMap& ref = *stacks_.at(c_.ids().front()).map;
  for (std::size_t s = 0; s < ref.shard_count(); ++s) {
    for (const auto& [k, v] : ref.shard(s).contents()) finals[k] = v;
  }
  for (const auto& [key, ops] : history_) {
    // Newest acknowledged op; keys with no acked op promise nothing.
    std::size_t acked_idx = ops.size();
    for (std::size_t i = ops.size(); i-- > 0;) {
      if (ops[i].acked) {
        acked_idx = i;
        break;
      }
    }
    if (acked_idx == ops.size()) continue;
    auto it = finals.find(key);
    // Allowed final states: the newest acked op itself, or any op issued
    // after it (voided ops may have landed — the client never learned).
    bool ok = false;
    if (it == finals.end()) {
      for (std::size_t i = acked_idx; i < ops.size() && !ok; ++i) {
        ok = ops[i].is_erase;
      }
    } else {
      for (std::size_t i = acked_idx; i < ops.size() && !ok; ++i) {
        ok = !ops[i].is_erase && ops[i].value == it->second;
      }
    }
    if (ok) continue;
    const OpRecord& acked = ops[acked_idx];
    if (it != finals.end() && acked.is_erase) {
      ++phantoms_;
      violation("durability: phantom resurrection — '" + key + "' = '" +
                it->second + "' though op " + std::to_string(acked.id) +
                " (erase) was acknowledged with nothing newer issued");
    } else if (it != finals.end()) {
      ++acked_lost_;
      violation("durability: acked write lost — '" + key + "' holds '" +
                it->second + "' instead of acknowledged op " +
                std::to_string(acked.id) + " ('" + acked.value +
                "') or anything issued after it");
    } else {
      ++acked_lost_;
      violation("durability: acked write lost — '" + key +
                "' is absent though op " + std::to_string(acked.id) + " ('" +
                acked.value + "') was acknowledged and never erased");
    }
  }
}

// --- reporting --------------------------------------------------------------

void DurabilityChaosCluster::violation(std::string what) {
  RC_WARN(kMod, "INVARIANT VIOLATION: %s", what.c_str());
  violations_.push_back(std::move(what));
}

metrics::Snapshot DurabilityChaosCluster::metrics_snapshot() const {
  metrics::Snapshot out = c_.metrics_snapshot();
  for (const auto& [id, st] : stacks_) {
    out.merge(st.mgr->metrics().snapshot());
    for (std::size_t s = 0; s < st.map->shard_count(); ++s) {
      out.merge(st.map->shard(s).metrics().snapshot());
      out.merge(st.locks->shard(s).metrics().snapshot());
    }
  }
  // WAL replay is timed on the wall clock (ShardStore::recover), the only
  // instrument here not derived from the seed; without it a round's metrics
  // replay exactly. bench_durability measures recovery time on its own.
  std::erase_if(out.histograms, [](const auto& h) {
    return h.first.ends_with("storage.recovery_ns");
  });
  return out;
}

std::string DurabilityChaosCluster::failure_report() const {
  std::string out = "=== durability chaos failure report ===\n";
  out += "violations (" + std::to_string(violations_.size()) + "):\n";
  for (const std::string& v : violations_) out += "  " + v + "\n";
  out += "acked=" + std::to_string(acked_ops_) +
         " voided=" + std::to_string(voided_ops_) +
         " acked_lost=" + std::to_string(acked_lost_) +
         " phantoms=" + std::to_string(phantoms_) + "\n";
  out += engine_.describe_schedule();
  out += c_.ring_dump();
  return out;
}

// --- run_durability_round ----------------------------------------------------

namespace {

/// Bootstrap → restart-storm chaos → heal and check on nodes 1..n_nodes
/// with the adaptive detector, then the outcome. `net_salt` gives each
/// round type its own network stream for one seed.
DurabilityRoundResult run_round(std::uint64_t seed, const std::string& dir,
                                std::size_t n_nodes, const ChaosConfig& ccfg,
                                const DurabilityConfig& dcfg,
                                std::uint64_t net_salt, Time chaos_duration,
                                Time converge_timeout) {
  net::SimNetConfig ncfg;
  ncfg.seed = seed ^ net_salt;
  session::SessionConfig scfg;
  scfg.transport.adaptive = true;
  DurabilityChaosCluster cluster(node_ids(n_nodes), dir, ccfg, dcfg, scfg,
                                 ncfg);
  if (cluster.bootstrap()) {
    cluster.run_chaos(chaos_duration);
    cluster.heal_and_check(converge_timeout);
  }
  DurabilityRoundResult res;
  res.violations = cluster.violations();
  res.schedule = cluster.engine().describe_schedule();
  res.faults = cluster.engine().faults_injected();
  res.classes = cluster.engine().classes_seen();
  res.acked_ops = cluster.acked_ops();
  res.voided_ops = cluster.voided_ops();
  res.acked_lost = cluster.acked_lost();
  res.phantom_resurrections = cluster.phantom_resurrections();
  res.metrics = cluster.metrics_snapshot();
  res.final_epoch = cluster.final_epoch();
  res.final_shards = cluster.final_shard_count();
  res.resize_completed = cluster.resize_completed();
  if (!res.violations.empty()) res.report = cluster.failure_report();
  return res;
}

}  // namespace

DurabilityRoundResult run_durability_round(std::uint64_t seed,
                                           const std::string& dir,
                                           Time chaos_duration,
                                           std::size_t n_nodes,
                                           std::size_t n_shards) {
  ChaosConfig ccfg;
  ccfg.seed = seed;
  ccfg.mean_gap = millis(160);
  ccfg.mean_duration = millis(320);
  ccfg.min_alive = 2;
  // Restart-storm mix: node crashes, shard restarts and full-cluster
  // restarts dominate; a light seasoning of network faults keeps the
  // recovery paths honest about loss and reordering.
  auto w = [&ccfg](FaultClass c) -> double& {
    return ccfg.weights[static_cast<std::size_t>(c)];
  };
  w(FaultClass::kCrashRestart) = 1.5;
  w(FaultClass::kPartition) = 0.4;
  w(FaultClass::kLinkCut) = 0.4;
  w(FaultClass::kDropBurst) = 0.4;
  w(FaultClass::kLatencyStorm) = 0.3;
  w(FaultClass::kDuplicateBurst) = 0.2;
  w(FaultClass::kCorruptBurst) = 0.2;
  w(FaultClass::kReorderWindow) = 0.2;
  w(FaultClass::kRttInflate) = 0.0;
  w(FaultClass::kAsymLoss) = 0.2;
  w(FaultClass::kLinkFlap) = 0.0;
  w(FaultClass::kShardRestart) = 1.2;
  w(FaultClass::kClusterRestart) = 0.5;

  DurabilityConfig dcfg;
  dcfg.n_shards = n_shards;
  dcfg.storage.fsync_every = 4;
  dcfg.storage.snapshot_every = 64;
  return run_round(seed, dir, n_nodes, ccfg, dcfg, 0xa0761d6478bd642fULL,
                   chaos_duration, millis(20000));
}

DurabilityRoundResult run_reshard_round(std::uint64_t seed,
                                        const std::string& dir,
                                        ReshardRoundOptions opts,
                                        Time chaos_duration,
                                        std::size_t n_nodes,
                                        std::size_t n_shards) {
  ChaosConfig ccfg;
  ccfg.seed = seed;
  // Lighter background storm than the pure restart rounds: the migration
  // must make progress between faults, and the targeted schedule supplies
  // the interesting kill on top.
  ccfg.mean_gap = millis(320);
  ccfg.mean_duration = millis(260);
  ccfg.min_alive = n_nodes > 1 ? n_nodes - 1 : 1;
  auto w = [&ccfg](FaultClass c) -> double& {
    return ccfg.weights[static_cast<std::size_t>(c)];
  };
  for (std::size_t i = 0; i < static_cast<std::size_t>(FaultClass::kCount);
       ++i) {
    ccfg.weights[i] = 0.0;
  }
  w(FaultClass::kCrashRestart) = 1.0;
  w(FaultClass::kDropBurst) = 0.5;
  w(FaultClass::kLatencyStorm) = 0.4;
  w(FaultClass::kLinkCut) = 0.3;
  w(FaultClass::kShardRestart) = 0.3;

  DurabilityConfig dcfg;
  dcfg.n_shards = n_shards;
  dcfg.storage.fsync_every = 4;
  dcfg.storage.snapshot_every = 64;
  dcfg.resize_to = opts.resize_to;
  dcfg.resize_at = opts.resize_at;
  dcfg.migration_fault = opts.fault;
  return run_round(seed, dir, n_nodes, ccfg, dcfg, 0xe7037ed1a0b428dbULL,
                   chaos_duration, millis(30000));
}

}  // namespace raincore::testing
