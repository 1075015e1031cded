#include "data/lock_manager.h"

#include <algorithm>

#include "common/log.h"

namespace raincore::data {

namespace {
constexpr const char* kMod = "dlm";
}

LockManager::LockManager(ChannelMux& mux, Channel channel)
    : mux_(mux), channel_(channel) {
  mux_.subscribe(channel_,
                 [this](NodeId origin, const Slice& payload, session::Ordering) {
                   on_message(origin, payload);
                 });
  mux_.subscribe_views([this](const session::View& v) { on_view(v); });
}

void LockManager::share_req_ids(std::shared_ptr<ReqIdSource> ids) {
  if (!ids) return;
  ids->next = std::max(ids->next, req_ids_->next);
  req_ids_ = std::move(ids);
}

void LockManager::set_migration_filter(ClassifyFn classify,
                                       LockBounceFn bounce, KeyPred retain) {
  classify_ = std::move(classify);
  bounce_fn_ = std::move(bounce);
  retain_ = std::move(retain);
}

void LockManager::bind_store(storage::ShardStore& store, std::uint16_t stream) {
  store_ = &store;
  stream_ = stream;
  storage::ShardStore::Hooks hooks;
  hooks.begin_recovery = [this] {
    shadow_locks_.clear();
    shadow_next_req_ = 0;
    shadow_valid_ = false;
  };
  hooks.snapshot = [this] {
    ByteWriter w(64);
    w.u64(req_ids_->next);
    write_table(w, locks_);
    return w.take();
  };
  hooks.load_snapshot = [this](ByteReader& r) {
    const std::uint64_t next_req = r.u64();
    std::map<std::string, LockState> table;
    if (!read_table(r, table)) return;
    shadow_next_req_ = std::max(shadow_next_req_, next_req);
    shadow_locks_ = std::move(table);
    shadow_valid_ = true;
  };
  hooks.replay = [this](ByteReader& r) {
    const auto op = static_cast<Op>(r.u8());
    if (op == Op::kEpoch) {
      std::map<std::string, LockState> table;
      if (read_table(r, table)) {
        shadow_locks_ = std::move(table);
        shadow_valid_ = true;
      }
      return;
    }
    std::string name = r.str();
    const NodeId node = r.u32();
    const std::uint64_t req = r.u64();
    if (!r.ok()) return;
    shadow_valid_ = true;
    auto& q = shadow_locks_[name].queue;
    if (op == Op::kAcquire) {
      if (node == mux_.self()) {
        shadow_next_req_ = std::max(shadow_next_req_, req + 1);
      }
      for (const Waiter& w : q) {
        if (w.node == node && w.req == req) return;
      }
      q.push_back(Waiter{node, req});
    } else if (op == Op::kRelease) {
      for (auto w = q.begin(); w != q.end(); ++w) {
        if (w->node == node && w->req == req) {
          q.erase(w);
          break;
        }
      }
      if (q.empty()) shadow_locks_.erase(name);
    }
  };
  store.attach(stream, std::move(hooks));
}

void LockManager::write_table(
    ByteWriter& w, const std::map<std::string, LockState>& table) const {
  w.u32(static_cast<std::uint32_t>(table.size()));
  for (const auto& [name, state] : table) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(state.queue.size()));
    for (const Waiter& waiter : state.queue) {
      w.u32(waiter.node);
      w.u64(waiter.req);
    }
  }
}

bool LockManager::read_table(ByteReader& r,
                             std::map<std::string, LockState>& table) const {
  const std::uint32_t n_locks = r.u32();
  if (!r.ok() || n_locks > 1'000'000) return false;
  for (std::uint32_t i = 0; i < n_locks && r.ok(); ++i) {
    std::string name = r.str();
    const std::uint32_t n_waiters = r.u32();
    if (!r.ok() || n_waiters > 1'000'000) return false;
    LockState& s = table[name];
    for (std::uint32_t k = 0; k < n_waiters && r.ok(); ++k) {
      const NodeId node = r.u32();
      const std::uint64_t req = r.u64();
      s.queue.push_back(Waiter{node, req});
    }
  }
  return r.ok();
}

void LockManager::journal_op(Op op, const std::string& name, NodeId node,
                             std::uint64_t req) {
  if (store_ == nullptr || !store_->is_open()) return;
  // Persistent scratch writer: apply-point journalling stays alloc-free.
  journal_w_.clear();
  journal_w_.u8(static_cast<std::uint8_t>(op));
  journal_w_.str(name);
  journal_w_.u32(node);
  journal_w_.u64(req);
  store_->append(stream_, journal_w_.view());
}

void LockManager::journal_epoch() {
  if (store_ == nullptr || !store_->is_open()) return;
  // The adopted-and-purged table replaces the shadow wholesale at replay,
  // exactly as apply_epoch replaced the live one.
  ByteWriter w(64);
  w.u8(static_cast<std::uint8_t>(Op::kEpoch));
  write_table(w, locks_);
  store_->append(stream_, w.take());
}

void LockManager::on_view(const session::View& v) {
  if (mux_.session().generation() != generation_) {
    // Crash-restart: our lock table is from a previous incarnation.
    generation_ = mux_.session().generation();
    locks_.clear();
    epoch_members_.clear();
    any_epoch_ = false;
    grant_fns_.clear();
    my_outstanding_.clear();
    wait_since_.clear();
    last_epoch_view_sent_ = 0;
  }
  if (!v.has(mux_.self())) return;
  if (shadow_valid_ && v.members.size() == 1) {
    // Founding singleton after a restart: adopt the recovered table (and
    // request-id counter, so ids are never reused across incarnations).
    // The epoch we announce for this very view carries the adopted table
    // and purges entries of nodes that are no longer members.
    locks_ = std::move(shadow_locks_);
    req_ids_->next = std::max(req_ids_->next, shadow_next_req_);
    shadow_locks_.clear();
    shadow_valid_ = false;
    RC_INFO(kMod, "node %u adopted recovered lock table: %zu locks",
            mux_.self(), locks_.size());
  }
  // The lowest-id member announces every membership change into the agreed
  // stream so all replicas purge dead nodes at the same point. The epoch
  // carries the sender's full lock table: replicas adopt it wholesale,
  // which re-converges tables that diverged across a split-brain merge.
  if (v.members.empty() || v.view_id == last_epoch_view_sent_) return;
  NodeId lowest = *std::min_element(v.members.begin(), v.members.end());
  if (lowest != mux_.self()) return;
  last_epoch_view_sent_ = v.view_id;
  ByteWriter w(32 + v.members.size() * 4);
  w.u8(static_cast<std::uint8_t>(Op::kEpoch));
  w.u32(static_cast<std::uint32_t>(v.members.size()));
  for (NodeId n : v.members) w.u32(n);
  w.u32(static_cast<std::uint32_t>(locks_.size()));
  for (const auto& [name, state] : locks_) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(state.queue.size()));
    for (const Waiter& waiter : state.queue) {
      w.u32(waiter.node);
      w.u64(waiter.req);
    }
  }
  mux_.send(channel_, w.take());
}

void LockManager::send_op(Op op, const std::string& name, std::uint64_t req) {
  ByteWriter w(name.size() + 16);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(name);
  w.u64(req);
  mux_.send(channel_, w.take());
}

void LockManager::acquire(const std::string& name, GrantFn on_granted) {
  std::uint64_t req = req_ids_->next++;
  if (on_granted) grant_fns_[{name, req}] = std::move(on_granted);
  my_outstanding_[name].push_back(req);
  wait_since_[{name, req}] = mux_.now();
  send_op(Op::kAcquire, name, req);
}

void LockManager::release(const std::string& name) {
  // A release retires one outstanding request of this node and names it on
  // the wire: the one earliest in the local queue (the ownership, or the
  // earliest queued request — a re-asserted request can sit behind a newer
  // one), else the oldest not yet applied here.
  auto it = my_outstanding_.find(name);
  if (it == my_outstanding_.end()) return;
  std::deque<std::uint64_t>& mine = it->second;
  auto pick = mine.begin();
  if (auto lit = locks_.find(name); lit != locks_.end()) {
    for (const Waiter& w : lit->second.queue) {
      if (w.node != mux_.self()) continue;
      auto m = std::find(mine.begin(), mine.end(), w.req);
      if (m != mine.end()) {
        pick = m;
        break;
      }
    }
  }
  const std::uint64_t req = *pick;
  mine.erase(pick);
  if (mine.empty()) my_outstanding_.erase(it);
  wait_since_.erase({name, req});
  send_op(Op::kRelease, name, req);
}

bool LockManager::held_by_me(const std::string& name) const {
  auto o = owner(name);
  return o && *o == mux_.self();
}

std::optional<NodeId> LockManager::owner(const std::string& name) const {
  auto it = locks_.find(name);
  if (it == locks_.end() || it->second.queue.empty()) return std::nullopt;
  return it->second.queue.front().node;
}

std::size_t LockManager::waiters(const std::string& name) const {
  auto it = locks_.find(name);
  if (it == locks_.end() || it->second.queue.empty()) return 0;
  return it->second.queue.size() - 1;
}

void LockManager::maybe_grant(const std::string& name) {
  auto lit = locks_.find(name);
  if (lit == locks_.end() || lit->second.queue.empty()) return;
  const Waiter& head = lit->second.queue.front();
  if (head.node != mux_.self()) return;
  if (auto wit = wait_since_.find({name, head.req}); wit != wait_since_.end()) {
    stats_.wait_ns.record_time(mux_.now() - wit->second);
    wait_since_.erase(wit);
  }
  // Grant exactly the request that reached the head — never a newer
  // request of ours riding on a not-yet-released previous ownership.
  auto it = grant_fns_.find({name, head.req});
  if (it == grant_fns_.end()) return;
  GrantFn fn = std::move(it->second);
  grant_fns_.erase(it);
  stats_.grants.inc();
  if (fn) fn(name);
}

void LockManager::apply_acquire(const std::string& name, NodeId node,
                                std::uint64_t req) {
  if (any_epoch_ && epoch_members_.count(node) == 0) {
    RC_DEBUG(kMod, "node %u drops acquire(%s) from %u: not an epoch member",
             mux_.self(), name.c_str(), node);
    return;  // dead origin
  }
  LockState& s = locks_[name];
  for (const Waiter& w : s.queue) {
    if (w.node == node && w.req == req) return;  // duplicate
  }
  s.queue.push_back(Waiter{node, req});
  journal_op(Op::kAcquire, name, node, req);
  maybe_grant(name);
}

void LockManager::apply_release(const std::string& name, NodeId node,
                                std::uint64_t req) {
  auto it = locks_.find(name);
  if (it == locks_.end()) return;
  // A release removes exactly the request it names: the ownership, or a
  // queued request withdrawn before it reached the head. A duplicate
  // release (the epoch self-heal below may re-send one) finds nothing.
  auto& q = it->second.queue;
  auto w = std::find_if(q.begin(), q.end(), [&](const Waiter& x) {
    return x.node == node && x.req == req;
  });
  if (w == q.end()) return;
  journal_op(Op::kRelease, name, node, req);
  const bool was_owner = w == q.begin();
  q.erase(w);
  if (q.empty()) {
    locks_.erase(it);
    stats_.releases.inc();
    return;
  }
  if (was_owner) {
    stats_.releases.inc();
    maybe_grant(name);
  }
}

void LockManager::apply_epoch(const std::vector<NodeId>& members,
                              std::map<std::string, LockState>&& table) {
  epoch_members_.clear();
  epoch_members_.insert(members.begin(), members.end());
  any_epoch_ = true;
  if (log_enabled(LogLevel::kDebug)) {
    std::string ms;
    for (NodeId m : members) ms += std::to_string(m) + " ";
    RC_DEBUG(kMod, "node %u adopts epoch members [%s]", mux_.self(), ms.c_str());
  }
  // Adopt the sender's table wholesale (it is in the agreed stream, so every
  // replica adopts the identical table at the identical point), purging dead
  // owners and waiters while doing so. Names that migrated away are
  // stripped the same way — a merge-side table must not resurrect a range
  // this partition already handed off.
  locks_ = std::move(table);
  if (classify_) {
    for (auto it = locks_.begin(); it != locks_.end();) {
      if (classify_(it->first) == RouteAction::kBounce &&
          !(retain_ && retain_(it->first))) {
        it = locks_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto it = locks_.begin(); it != locks_.end();) {
    auto& q = it->second.queue;
    NodeId adopted_owner = q.empty() ? kInvalidNode : q.front().node;
    std::size_t before = q.size();
    q.erase(std::remove_if(q.begin(), q.end(),
                           [&](const Waiter& w) {
                             return epoch_members_.count(w.node) == 0;
                           }),
            q.end());
    std::size_t purged = before - q.size();
    if (purged > 0) {
      stats_.purged_waiters.inc(purged);
      if (!q.empty() && adopted_owner != q.front().node) stats_.purged_owners.inc();
    }
    if (q.empty()) {
      it = locks_.erase(it);
      continue;
    }
    ++it;
  }
  // Self-heal against the adoption being stale with respect to this node:
  //  - an adopted entry of ours whose request is no longer outstanding (we
  //    released it, and the release was ordered between the epoch's
  //    serialisation and its delivery) is released again by id — if the
  //    first release is still to come, the second finds nothing;
  //  - an outstanding request of ours the adopted table does not contain
  //    (the sender never saw it — e.g. we were merged in) is re-asserted
  //    with its original request id, which apply_acquire de-duplicates.
  for (const auto& [name, state] : locks_) {
    auto mit = my_outstanding_.find(name);
    for (const Waiter& w : state.queue) {
      if (w.node != mux_.self()) continue;
      const bool live =
          mit != my_outstanding_.end() &&
          std::find(mit->second.begin(), mit->second.end(), w.req) !=
              mit->second.end();
      if (!live) send_op(Op::kRelease, name, w.req);
    }
  }
  for (const auto& [name, reqs] : my_outstanding_) {
    // Requests whose lock migrated away are re-asserted on the owner
    // partition (their bookkeeping moves there too), never here.
    if (classify_ && classify_(name) != RouteAction::kApply) continue;
    auto lit = locks_.find(name);
    for (std::uint64_t req : reqs) {
      bool present = false;
      if (lit != locks_.end()) {
        for (const Waiter& w : lit->second.queue) {
          if (w.node == mux_.self() && w.req == req) {
            present = true;
            break;
          }
        }
      }
      if (!present) send_op(Op::kAcquire, name, req);
    }
  }
  journal_epoch();
  for (const auto& entry : locks_) maybe_grant(entry.first);
}

void LockManager::on_message(NodeId origin, const Slice& payload) {
  ByteReader r(payload);
  auto op = static_cast<Op>(r.u8());
  switch (op) {
    case Op::kAcquire:
    case Op::kRelease: {
      std::string name = r.str();
      const std::uint64_t req = r.u64();
      if (!r.ok()) break;
      // Migration classification: every replica computes the same action
      // for this name at this stream point (the classify state is itself
      // mutated only by ring-ordered messages).
      RouteAction action =
          classify_ ? classify_(name) : RouteAction::kApply;
      if (action == RouteAction::kBounce) {
        // Migrated away — skipped identically everywhere; the origin
        // re-routes its own op to the new owner partition.
        if (origin == mux_.self() && bounce_fn_) {
          bounce_fn_(static_cast<std::uint8_t>(op), name, req);
        }
        break;
      }
      if (action == RouteAction::kBuffer) {
        // Destination side of an in-flight range: the frozen source table
        // has not CUT into this stream yet, so applying now could grant
        // against an empty queue while the true owner sits in the chunk.
        // Hold the op; flush_buffered() replays it after the chunk lands.
        buffered_.push_back(
            BufferedOp{static_cast<std::uint8_t>(op), name, origin, req});
        break;
      }
      if (op == Op::kAcquire) {
        apply_acquire(name, origin, req);
      } else {
        apply_release(name, origin, req);
      }
      break;
    }
    case Op::kEpoch: {
      std::uint32_t n = r.u32();
      if (!r.ok() || n > 1'000'000) return;
      std::vector<NodeId> members;
      members.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) members.push_back(r.u32());
      std::uint32_t n_locks = r.u32();
      if (!r.ok() || n_locks > 1'000'000) return;
      std::map<std::string, LockState> table;
      for (std::uint32_t i = 0; i < n_locks && r.ok(); ++i) {
        std::string name = r.str();
        std::uint32_t n_waiters = r.u32();
        if (!r.ok() || n_waiters > 1'000'000) return;
        LockState& s = table[name];
        for (std::uint32_t k = 0; k < n_waiters && r.ok(); ++k) {
          NodeId node = r.u32();
          std::uint64_t req = r.u64();
          s.queue.push_back(Waiter{node, req});
        }
      }
      if (!r.ok()) return;
      // Epochs serialized under an old view can be delivered late (a
      // sub-group's pending multicast attached after its merge). Applying
      // one would resurrect a stale member set and silently drop acquires
      // from live nodes, so only the epoch matching our current view — the
      // one its sender serialized at the same stream point — is adopted.
      std::vector<NodeId> now = mux_.view().members;
      std::sort(members.begin(), members.end());
      std::sort(now.begin(), now.end());
      if (members != now) {
        RC_DEBUG(kMod, "node %u ignores stale epoch from %u", mux_.self(),
                 origin);
        return;
      }
      apply_epoch(members, std::move(table));
      break;
    }
  }
  (void)kMod;
}

// --- elastic-resharding hooks (DESIGN.md §5j) ------------------------------

std::vector<Bytes> LockManager::collect_range_chunks(
    const KeyPred& pred) const {
  std::vector<Bytes> out;
  ByteWriter w(256);
  std::uint32_t rows = 0;
  std::size_t body = 0;
  auto flush = [&] {
    if (rows == 0) return;
    ByteWriter chunk(8 + body);
    chunk.u32(rows);
    chunk.raw(w.view().data(), w.view().size());
    out.push_back(chunk.take());
    w.clear();
    rows = 0;
    body = 0;
  };
  for (const auto& [name, state] : locks_) {
    if (!pred(name)) continue;
    w.str(name);
    w.u32(static_cast<std::uint32_t>(state.queue.size()));
    for (const Waiter& waiter : state.queue) {
      w.u32(waiter.node);
      w.u64(waiter.req);
    }
    ++rows;
    body = w.view().size();
    if (body >= kMigrationChunkBytes) flush();
  }
  flush();
  return out;
}

void LockManager::apply_migration_chunk(ByteReader& r) {
  const std::uint32_t rows = r.u32();
  if (!r.ok() || rows > 1'000'000) return;
  std::vector<std::string> touched;
  for (std::uint32_t i = 0; i < rows && r.ok(); ++i) {
    std::string name = r.str();
    const std::uint32_t n_waiters = r.u32();
    if (!r.ok() || n_waiters > 1'000'000) return;
    std::deque<Waiter> incoming;
    for (std::uint32_t k = 0; k < n_waiters && r.ok(); ++k) {
      const NodeId node = r.u32();
      const std::uint64_t req = r.u64();
      // The chunk was collected at the source's freeze point; members that
      // died since are purged here, exactly as an epoch adoption would.
      if (any_epoch_ && epoch_members_.count(node) == 0) continue;
      incoming.push_back(Waiter{node, req});
    }
    if (!r.ok()) return;
    // Merge-install: the frozen source queue comes first (it predates every
    // op this partition buffered for the range), then any entries already
    // present that the chunk does not know about (merge-side residue).
    auto& q = locks_[name].queue;
    for (const Waiter& w : q) {
      bool dup = false;
      for (const Waiter& in : incoming) {
        if (in.node == w.node && in.req == w.req) {
          dup = true;
          break;
        }
      }
      if (!dup) incoming.push_back(w);
    }
    q = std::move(incoming);
    if (q.empty()) {
      locks_.erase(name);
    } else {
      touched.push_back(std::move(name));
    }
  }
  journal_epoch();
  for (const std::string& name : touched) maybe_grant(name);
}

void LockManager::flush_buffered(const KeyPred& pred) {
  std::deque<BufferedOp> rest;
  std::deque<BufferedOp> run;
  for (auto& b : buffered_) {
    (pred(b.name) ? run : rest).push_back(std::move(b));
  }
  buffered_ = std::move(rest);
  for (const BufferedOp& b : run) {
    if (static_cast<Op>(b.op) == Op::kAcquire) {
      apply_acquire(b.name, b.node, b.req);
    } else {
      apply_release(b.name, b.node, b.req);
    }
  }
}

std::size_t LockManager::drop_range(const KeyPred& pred) {
  std::size_t dropped = 0;
  for (auto it = locks_.begin(); it != locks_.end();) {
    if (pred(it->first)) {
      it = locks_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  for (auto it = buffered_.begin(); it != buffered_.end();) {
    it = pred(it->name) ? buffered_.erase(it) : it + 1;
  }
  if (dropped > 0) journal_epoch();
  return dropped;
}

std::vector<LockManager::LocalRequest> LockManager::extract_local_requests(
    const KeyPred& pred) {
  std::vector<LocalRequest> out;
  for (auto it = my_outstanding_.begin(); it != my_outstanding_.end();) {
    if (!pred(it->first)) {
      ++it;
      continue;
    }
    for (std::uint64_t req : it->second) {
      LocalRequest lr;
      lr.name = it->first;
      lr.req = req;
      lr.outstanding = true;
      if (auto g = grant_fns_.find({it->first, req}); g != grant_fns_.end()) {
        lr.grant = std::move(g->second);
        grant_fns_.erase(g);
      }
      if (auto w = wait_since_.find({it->first, req}); w != wait_since_.end()) {
        lr.wait_since = w->second;
        wait_since_.erase(w);
      }
      out.push_back(std::move(lr));
    }
    it = my_outstanding_.erase(it);
  }
  // Residue: callbacks registered for requests already released locally.
  for (auto it = grant_fns_.begin(); it != grant_fns_.end();) {
    if (pred(it->first.first)) {
      LocalRequest lr;
      lr.name = it->first.first;
      lr.req = it->first.second;
      lr.grant = std::move(it->second);
      out.push_back(std::move(lr));
      it = grant_fns_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = wait_since_.begin(); it != wait_since_.end();) {
    it = pred(it->first.first) ? wait_since_.erase(it) : std::next(it);
  }
  return out;
}

void LockManager::absorb_local_requests(std::vector<LocalRequest> reqs) {
  std::set<std::string> touched;
  for (auto& lr : reqs) {
    if (lr.outstanding) {
      auto& dq = my_outstanding_[lr.name];
      dq.push_back(lr.req);
      std::sort(dq.begin(), dq.end());  // release pops earliest req first
    }
    if (lr.grant) grant_fns_[{lr.name, lr.req}] = std::move(lr.grant);
    if (lr.wait_since) wait_since_[{lr.name, lr.req}] = *lr.wait_since;
    touched.insert(lr.name);
  }
  // The chunk may have installed this node at a queue head before its grant
  // callback arrived here; fire those grants now.
  for (const std::string& name : touched) maybe_grant(name);
}

void LockManager::resend_acquire(const std::string& name, std::uint64_t req) {
  send_op(Op::kAcquire, name, req);
}

void LockManager::send_release_raw(const std::string& name,
                                   std::uint64_t req) {
  send_op(Op::kRelease, name, req);
}

}  // namespace raincore::data
