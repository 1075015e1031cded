#include "data/reshard.h"

#include <algorithm>

#include "common/log.h"

namespace raincore::data {

namespace {
constexpr const char* kMod = "reshard";
constexpr std::uint8_t kServiceMap = 0;
constexpr std::uint8_t kServiceLock = 1;
/// Manager channel on every shard ring's ChannelMux (also the journal
/// stream id in each shard store) — must not collide with service channels.
constexpr Channel kChannel = 15;
/// Coordinator re-drive interval: the current step is re-sent if no
/// progress was observed for this long (steps are idempotent).
constexpr Time kRedriveInterval = millis(150);
}  // namespace

ReshardManager::ReshardManager(ShardedDataPlane& plane, ShardedMap& map,
                               ShardedLockManager& locks,
                               std::size_t initial_shards)
    : plane_(plane), map_(map), locks_(locks) {
  const std::size_t k0 = plane_.shard_count();
  const auto birth =
      static_cast<std::uint32_t>(initial_shards != 0 ? initial_shards : k0);
  filters_.reserve(k0);
  auto t0 = table(birth);
  for (std::size_t s = 0; s < k0; ++s) {
    filters_.push_back(PartitionFilter{t0, std::nullopt, 0});
    birth_k_.push_back(birth);
    wire_partition(s);
  }
  map_.attach_reshard(this);
  locks_.attach_reshard(this);
  generation_ = plane_.channels(0).session().generation();
  plane_.channels(0).subscribe_views(
      [this](const session::View& v) { on_ring0_view(v); });
}

std::shared_ptr<const ShardRouter> ReshardManager::table(std::uint32_t k) {
  auto it = tables_.find(k);
  if (it != tables_.end()) return it->second;
  auto t = std::make_shared<const ShardRouter>(k);
  tables_[k] = t;
  return t;
}

void ReshardManager::wire_partition(std::size_t s) {
  plane_.channels(s).subscribe(
      kChannel, [this, s](NodeId origin, const Slice& payload,
                              session::Ordering) { on_message(s, origin, payload); });
  map_.shard(s).set_migration_filter(
      s, [this, s](const std::string& key) { return map_owner(s, key); },
      [this](bool erase, const std::string& key, const std::string& value,
             ReplicatedMap::Stamp stamp) {
        bounce_map(erase, key, value, stamp);
      },
      [this, s](const std::string& key) { return retain_here(s, key); });
  locks_.shard(s).set_migration_filter(
      [this, s](const std::string& name) { return lock_action(s, name); },
      [this, s](std::uint8_t op, const std::string& name, std::uint64_t req) {
        bounce_lock(s, op, name, req);
      },
      [this, s](const std::string& name) { return retain_here(s, name); });
  auto* store = plane_.store(s);
  if (store == nullptr) return;
  storage::ShardStore::Hooks hooks;
  hooks.begin_recovery = [this, s] {
    filters_[s] = PartitionFilter{table(birth_k_[s]), std::nullopt, 0};
  };
  hooks.snapshot = [this, s] {
    const PartitionFilter& pf = filters_[s];
    ByteWriter w(64);
    w.u32(static_cast<std::uint32_t>(pf.cur->shard_count()));
    w.u64(pf.completed_epoch);
    w.u8(pf.rec ? 1 : 0);
    if (pf.rec) {
      w.u64(pf.rec->epoch);
      w.u32(pf.rec->new_k);
      w.u32(static_cast<std::uint32_t>(pf.rec->frozen_out.size()));
      for (const auto& [f, t] : pf.rec->frozen_out) {
        w.u32(f);
        w.u32(t);
      }
      w.u32(static_cast<std::uint32_t>(pf.rec->committed_in.size()));
      for (const auto& [f, t] : pf.rec->committed_in) {
        w.u32(f);
        w.u32(t);
      }
    }
    return w.take();
  };
  hooks.load_snapshot = [this, s](ByteReader& r) {
    const std::uint32_t cur_k = r.u32();
    const std::uint64_t completed = r.u64();
    const bool has_rec = r.u8() != 0;
    if (!r.ok() || cur_k == 0) return;
    PartitionFilter pf{table(cur_k), std::nullopt, completed};
    if (has_rec) {
      EpochRec rec;
      rec.epoch = r.u64();
      rec.new_k = r.u32();
      const std::uint32_t nf = r.u32();
      if (!r.ok() || nf > 1'000'000) return;
      for (std::uint32_t i = 0; i < nf; ++i) {
        const std::uint32_t f = r.u32();
        const std::uint32_t t = r.u32();
        rec.frozen_out.insert({f, t});
      }
      const std::uint32_t nc = r.u32();
      if (!r.ok() || nc > 1'000'000) return;
      for (std::uint32_t i = 0; i < nc; ++i) {
        const std::uint32_t f = r.u32();
        const std::uint32_t t = r.u32();
        rec.committed_in.insert({f, t});
      }
      if (!r.ok() || rec.new_k == 0) return;
      rec.next = table(rec.new_k);
      pf.rec = std::move(rec);
    }
    if (!r.ok()) return;
    filters_[s] = std::move(pf);
  };
  hooks.replay = [this, s](ByteReader& r) {
    const auto rec = static_cast<Rec>(r.u8());
    const std::uint64_t epoch = r.u64();
    const std::uint32_t new_k = r.u32();
    const std::uint32_t from = r.u32();
    const std::uint32_t to = r.u32();
    (void)to;
    if (!r.ok() || new_k == 0) return;
    PartitionFilter& pf = filters_[s];
    if (rec == Rec::kComplete) {
      pf.cur = table(new_k);
      pf.rec.reset();
      pf.completed_epoch = std::max(pf.completed_epoch, epoch);
      return;
    }
    if (epoch <= pf.completed_epoch) return;
    if (rec == Rec::kAnnounce && from != 0) {
      // The announce record carries the partition's table at window-open, so
      // recovery rebuilds `cur` even when no snapshot covers this stream
      // (a shard grown and crashed before its first compaction).
      pf.cur = table(from);
    }
    if (!pf.rec || pf.rec->epoch < epoch) {
      pf.rec = EpochRec{epoch, new_k, table(new_k), {}, {}};
    }
    if (pf.rec->epoch != epoch) return;
    if (rec == Rec::kFreeze) pf.rec->frozen_out.insert({from, to});
    if (rec == Rec::kCommit) pf.rec->committed_in.insert({from, to});
  };
  store->attach(kChannel, std::move(hooks));
}

void ReshardManager::journal(std::size_t s, Rec rec, std::uint64_t epoch,
                             std::uint32_t new_k, std::uint32_t from,
                             std::uint32_t to) {
  auto* store = plane_.store(s);
  if (store == nullptr || !store->is_open()) return;
  ByteWriter w(32);
  w.u8(static_cast<std::uint8_t>(rec));
  w.u64(epoch);
  w.u32(new_k);
  w.u32(from);  // kAnnounce: the partition's table size at window-open
  w.u32(to);
  store->append(kChannel, w.take());
}

// ---------------------------------------------------------------------------
// Apply-point classification (replica-deterministic per partition)

bool ReshardManager::retain_here(std::size_t s, const std::string& key) const {
  // Wholesale-adoption retention (joiner sync / reconcile / recovered
  // shadow / lock-epoch merge). Deliberately WIDER than map_owner while a
  // window is open: a frozen-out range's source copy is the chunk ground
  // truth until UNFREEZE drops it, so a replica syncing into the source
  // ring must keep it — stripping it would lose moved data (and erase
  // tombstones) that the coordinator still reads chunks from. Mirrors
  // scrub_partition: only complete strangers go.
  const PartitionFilter& pf = filters_[s];
  if (pf.cur->shard_of(key) == s) return true;
  return pf.rec && pf.rec->next->shard_of(key) == s;
}

std::size_t ReshardManager::map_owner(std::size_t s,
                                      const std::string& key) const {
  const PartitionFilter& pf = filters_[s];
  if (pf.rec) {
    const std::uint32_t f = static_cast<std::uint32_t>(pf.cur->shard_of(key));
    const std::uint32_t t =
        static_cast<std::uint32_t>(pf.rec->next->shard_of(key));
    if (t == s) return s;  // new home (chunks + fenced fresh writes land here)
    if (f == s && pf.rec->frozen_out.count({f, t}) == 0) return s;
    return t;  // frozen out (or stray): the new owner applies
  }
  return pf.cur->shard_of(key);
}

LockManager::RouteAction ReshardManager::lock_action(
    std::size_t s, const std::string& name) const {
  const PartitionFilter& pf = filters_[s];
  if (pf.rec) {
    const std::uint32_t f = static_cast<std::uint32_t>(pf.cur->shard_of(name));
    const std::uint32_t t =
        static_cast<std::uint32_t>(pf.rec->next->shard_of(name));
    if (t == s) {
      if (f == t) return LockManager::RouteAction::kApply;  // not moving
      // Incoming range: the frozen source table must land (CUT) before any
      // op applies here, or a grant could race the true owner's entry.
      return pf.rec->committed_in.count({f, t}) != 0
                 ? LockManager::RouteAction::kApply
                 : LockManager::RouteAction::kBuffer;
    }
    if (f == s) {
      return pf.rec->frozen_out.count({f, t}) != 0
                 ? LockManager::RouteAction::kBounce
                 : LockManager::RouteAction::kApply;
    }
    return LockManager::RouteAction::kBounce;
  }
  return pf.cur->shard_of(name) == s ? LockManager::RouteAction::kApply
                                     : LockManager::RouteAction::kBounce;
}

void ReshardManager::bounce_map(bool erase, const std::string& key,
                                const std::string& value,
                                ReplicatedMap::Stamp stamp) {
  const VersionedRouter& vr = plane_.vrouter();
  const std::size_t d =
      vr.next() ? vr.next()->shard_of(key) : vr.current().shard_of(key);
  if (d >= map_.shard_count()) return;
  ensure_announced(d);
  map_.shard(d).migrate_propose(erase, key, value, stamp);
}

void ReshardManager::bounce_lock(std::size_t src, std::uint8_t op,
                                 const std::string& name, std::uint64_t req) {
  const VersionedRouter& vr = plane_.vrouter();
  const std::size_t d =
      vr.next() ? vr.next()->shard_of(name) : vr.current().shard_of(name);
  if (d >= locks_.shard_count() || d == src) return;
  ensure_announced(d);
  auto moved = locks_.shard(src).extract_local_requests(
      [&name](const std::string& n) { return n == name; });
  if (!moved.empty()) locks_.shard(d).absorb_local_requests(std::move(moved));
  if (op == 1) {  // raw LockManager op: 1 = acquire, 2 = release
    locks_.shard(d).resend_acquire(name, req);
  } else {
    locks_.shard(d).send_release_raw(name, req);
  }
}

ReplicatedMap::KeyPred ReshardManager::range_pred(std::size_t s,
                                                  const RangeId& r) const {
  const PartitionFilter& pf = filters_[s];
  auto oldr = pf.cur;
  auto newr = pf.rec ? pf.rec->next : pf.cur;
  return [oldr, newr, r](const std::string& key) {
    return oldr->shard_of(key) == r.from && newr->shard_of(key) == r.to;
  };
}

// ---------------------------------------------------------------------------
// Routing hooks

void ReshardManager::ensure_announced(std::size_t shard) {
  if (!active_ || shard >= plane_.shard_count()) return;
  if (!announced_.insert(shard).second) return;
  ByteWriter w(16);
  w.u8(static_cast<std::uint8_t>(Msg::kAnnounce));
  w.u64(active_epoch_);
  w.u32(static_cast<std::uint32_t>(plane_.vrouter().new_shard_count()));
  plane_.channels(shard).send(kChannel, w.take());
}

void ReshardManager::pull_local_requests(const std::string& name,
                                         std::size_t dst) {
  if (!active_) return;
  const std::size_t f = plane_.vrouter().current().shard_of(name);
  if (f == dst || f >= locks_.shard_count()) return;
  auto moved = locks_.shard(f).extract_local_requests(
      [&name](const std::string& n) { return n == name; });
  if (!moved.empty()) locks_.shard(dst).absorb_local_requests(std::move(moved));
}

// ---------------------------------------------------------------------------
// Growth

void ReshardManager::ensure_grown(std::uint64_t epoch, std::uint32_t new_k) {
  if (epoch <= last_completed_epoch_) return;
  if (!active_) {
    active_ = true;
    active_epoch_ = epoch;
    announced_.clear();
    last_drive_sig_ = 0;
    plane_.vrouter().begin(new_k, epoch);
    resizes_.inc();
    RC_INFO(kMod, "node %u opens migration epoch %llu: %zu -> %u shards",
            plane_.channels(0).self(),
            static_cast<unsigned long long>(epoch),
            plane_.vrouter().current().shard_count(), new_k);
  }
  if (plane_.shard_count() >= new_k) return;
  const std::size_t old_k = plane_.shard_count();
  plane_.grow_to(new_k);
  map_.grow();
  locks_.grow();
  const bool open_stores =
      plane_.durable() && plane_.store(0) != nullptr && plane_.store(0)->is_open();
  for (std::size_t s = old_k; s < new_k; ++s) {
    filters_.push_back(
        PartitionFilter{table(static_cast<std::uint32_t>(old_k)), std::nullopt,
                        last_completed_epoch_});
    birth_k_.push_back(static_cast<std::uint32_t>(old_k));
    wire_partition(s);
    if (open_stores) {
      plane_.open_store(s);
      plane_.recover_store(s);
    }
    // Record at birth: no message can be delivered on the new ring before
    // this point, so every replica classifies identically from the start.
    filters_[s].rec = EpochRec{epoch, new_k, table(new_k), {}, {}};
    journal(s, Rec::kAnnounce, epoch, new_k,
            static_cast<std::uint32_t>(old_k), 0);
    plane_.ring(s).found();
  }
}

ReshardManager::EpochRec* ReshardManager::ensure_rec(std::size_t s,
                                                     std::uint64_t epoch,
                                                     std::uint32_t new_k) {
  PartitionFilter& pf = filters_[s];
  if (epoch <= pf.completed_epoch) return nullptr;
  if (!pf.rec || pf.rec->epoch < epoch) {
    pf.rec = EpochRec{epoch, new_k, table(new_k), {}, {}};
    journal(s, Rec::kAnnounce, epoch, new_k,
            static_cast<std::uint32_t>(pf.cur->shard_count()), 0);
  }
  if (pf.rec->epoch != epoch) return nullptr;
  return &*pf.rec;
}

// ---------------------------------------------------------------------------
// Protocol messages

void ReshardManager::start_resize(std::size_t new_shards) {
  if (active_ || new_shards <= plane_.shard_count()) return;
  ByteWriter w(16);
  w.u8(static_cast<std::uint8_t>(Msg::kResizeStart));
  w.u64(last_completed_epoch_ + 1);
  w.u32(static_cast<std::uint32_t>(new_shards));
  plane_.channels(0).send(kChannel, w.take());
}

void ReshardManager::on_message(std::size_t s, NodeId origin,
                                const Slice& payload) {
  (void)origin;
  ByteReader r(payload);
  const auto m = static_cast<Msg>(r.u8());
  switch (m) {
    case Msg::kResizeStart: {
      if (s != 0) return;
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      if (!r.ok() || new_k == 0) return;
      if (active_ || epoch <= last_completed_epoch_ ||
          new_k <= plane_.vrouter().current().shard_count()) {
        return;  // duplicate / stale / already learned via another ring
      }
      ensure_grown(epoch, new_k);
      drive(false);
      break;
    }
    case Msg::kAnnounce: {
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      if (!r.ok() || new_k == 0) return;
      ensure_grown(epoch, new_k);
      ensure_rec(s, epoch, new_k);
      break;
    }
    case Msg::kFreeze: {
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      const std::uint32_t from = r.u32();
      const std::uint32_t to = r.u32();
      if (!r.ok() || new_k == 0) return;
      ensure_grown(epoch, new_k);
      EpochRec* rec = ensure_rec(s, epoch, new_k);
      if (rec != nullptr && rec->frozen_out.insert({from, to}).second) {
        journal(s, Rec::kFreeze, epoch, new_k, from, to);
        // Stamp fence: fresh destination writes must outrank every entry
        // of the frozen snapshot under last-writer-wins.
        if (to < map_.shard_count()) {
          map_.shard(to).advance_send_clock(map_.shard(s).clock_ceiling());
        }
        plane_.vrouter().set_state(RangeId{from, to}, RangeState::kFrozen);
      }
      drive(false);
      break;
    }
    case Msg::kChunk: {
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      const std::uint32_t from = r.u32();
      const std::uint32_t to = r.u32();
      const std::uint8_t service = r.u8();
      if (!r.ok() || new_k == 0) return;
      ensure_grown(epoch, new_k);
      EpochRec* rec = ensure_rec(s, epoch, new_k);
      if (rec == nullptr) return;
      // A re-driven chunk arriving after CUTOVER must not resurrect rows
      // the destination already released/overwrote.
      if (rec->committed_in.count({from, to}) != 0) return;
      if (service == kServiceMap) {
        map_.shard(s).apply_migration_chunk(r);
      } else if (service == kServiceLock) {
        locks_.shard(s).apply_migration_chunk(r);
      }
      break;
    }
    case Msg::kCommit: {
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      const std::uint32_t from = r.u32();
      const std::uint32_t to = r.u32();
      if (!r.ok() || new_k == 0) return;
      ensure_grown(epoch, new_k);
      EpochRec* rec = ensure_rec(s, epoch, new_k);
      if (rec != nullptr && rec->committed_in.insert({from, to}).second) {
        // The CUTOVER record: once durable here, the range's home is the
        // destination whatever crashes next.
        journal(s, Rec::kCommit, epoch, new_k, from, to);
        locks_.shard(s).flush_buffered(
            range_pred(s, RangeId{from, to}));
        plane_.vrouter().set_state(RangeId{from, to}, RangeState::kCut);
      }
      drive(false);
      break;
    }
    case Msg::kUnfreeze: {
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      const std::uint32_t from = r.u32();
      const std::uint32_t to = r.u32();
      if (!r.ok() || new_k == 0) return;
      ensure_grown(epoch, new_k);
      EpochRec* rec = ensure_rec(s, epoch, new_k);
      if (rec == nullptr || rec->frozen_out.count({from, to}) == 0) return;
      auto pred = range_pred(s, RangeId{from, to});
      auto moved = locks_.shard(s).extract_local_requests(pred);
      if (to < locks_.shard_count() && !moved.empty()) {
        locks_.shard(to).absorb_local_requests(std::move(moved));
      }
      map_.shard(s).drop_range(pred);
      locks_.shard(s).drop_range(pred);
      // The drop is not a journal record: compaction snapshots the
      // post-drop state, which is how recovery observes the hand-off.
      if (auto* st = plane_.store(s); st != nullptr && st->is_open()) {
        st->compact();
      }
      plane_.vrouter().set_state(RangeId{from, to}, RangeState::kDone);
      drive(false);
      break;
    }
    case Msg::kEpochComplete: {
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      if (!r.ok() || new_k == 0) return;
      PartitionFilter& pf = filters_[s];
      if (behind(pf, epoch)) {
        pf.cur = table(new_k);
        pf.rec.reset();
        pf.completed_epoch = epoch;
        journal(s, Rec::kComplete, epoch, new_k, 0, 0);
        scrub_partition(s);
      }
      break;
    }
    case Msg::kResizeDone: {
      if (s != 0) return;
      const std::uint64_t epoch = r.u64();
      const std::uint32_t new_k = r.u32();
      if (!r.ok() || new_k == 0) return;
      if (active_ && epoch == active_epoch_) {
        plane_.vrouter().complete();
        active_ = false;
        last_completed_epoch_ = epoch;
        announced_.clear();
        RC_INFO(kMod, "node %u closed migration epoch %llu at %u shards",
                plane_.channels(0).self(),
                static_cast<unsigned long long>(epoch), new_k);
      }
      break;
    }
    case Msg::kStateDump: {
      if (s != 0) return;
      adopt_state_dump(r);
      break;
    }
    case Msg::kDumpRequest: {
      if (s != 0) return;
      // The lowest-id member other than the asker answers (computed from
      // the shared view, so exactly one dump is sent).
      NodeId responder = kInvalidNode;
      for (NodeId n : plane_.channels(0).view().members) {
        if (n != origin && n < responder) responder = n;
      }
      if (responder == plane_.channels(0).self()) send_state_dump();
      break;
    }
  }
  (void)kMod;
}

void ReshardManager::scrub_partition(std::size_t s) {
  const PartitionFilter& pf = filters_[s];
  auto cur = pf.cur;
  std::shared_ptr<const ShardRouter> next = pf.rec ? pf.rec->next : nullptr;
  auto pred = [cur, next, s](const std::string& key) {
    const std::size_t f = cur->shard_of(key);
    if (!next) return f != s;
    // With a window still open only complete strangers are scrubbed: a
    // frozen-but-uncut range's source copy is the chunk's ground truth.
    return f != s && next->shard_of(key) != s;
  };
  // Scrubbed strangers are re-routed to their owner first (original stamps,
  // LWW-idempotent): after a partition merge our copy of a migrated-away
  // key can be FRESHER than what the owner's side moved — silently dropping
  // it here would lose an acked write or resurrect an erased key.
  std::size_t n = map_.shard(s).drop_range(pred, /*reroute=*/true);
  n += locks_.shard(s).drop_range(pred);
  if (n > 0) scrubbed_.inc(n);
  if (auto* st = plane_.store(s); st != nullptr && st->is_open()) {
    st->compact();
  }
}

// ---------------------------------------------------------------------------
// Coordinator

bool ReshardManager::i_coordinate() const {
  const auto& members = plane_.channels(0).view().members;
  if (members.empty()) return false;
  return *std::min_element(members.begin(), members.end()) ==
         plane_.channels(0).self();
}

void ReshardManager::send_range_step(Msg m, const RangeId& r) {
  ByteWriter w(32);
  w.u8(static_cast<std::uint8_t>(m));
  w.u64(active_epoch_);
  w.u32(static_cast<std::uint32_t>(plane_.vrouter().new_shard_count()));
  w.u32(r.from);
  w.u32(r.to);
  const std::size_t ring = (m == Msg::kCommit) ? r.to : r.from;
  plane_.channels(ring).send(kChannel, w.take());
}

void ReshardManager::send_chunks_and_commit(const RangeId& r) {
  // Post-freeze the range is immutable at the source, so the coordinator's
  // own replica is an exact snapshot — a successor coordinator collecting
  // later gets the identical content (minus epoch-purged dead lock rows).
  const auto new_k =
      static_cast<std::uint32_t>(plane_.vrouter().new_shard_count());
  auto pred = range_pred(r.from, r);
  auto send_chunk = [&](std::uint8_t service, const Bytes& body) {
    ByteWriter w(32 + body.size());
    w.u8(static_cast<std::uint8_t>(Msg::kChunk));
    w.u64(active_epoch_);
    w.u32(new_k);
    w.u32(r.from);
    w.u32(r.to);
    w.u8(service);
    w.raw(body.data(), body.size());
    plane_.channels(r.to).send(kChannel, w.take());
    chunks_sent_.inc();
  };
  for (const Bytes& c : map_.shard(r.from).collect_range_chunks(pred)) {
    send_chunk(kServiceMap, c);
  }
  for (const Bytes& c : locks_.shard(r.from).collect_range_chunks(pred)) {
    send_chunk(kServiceLock, c);
  }
  send_range_step(Msg::kCommit, r);
  ranges_moved_.inc();
}

void ReshardManager::drive(bool force) {
  if (!active_ || !i_coordinate()) return;
  const VersionedRouter& vr = plane_.vrouter();
  // Freshly created destination rings start as per-node singletons and
  // merge through discovery. Freezing or chunking before the ring carries
  // the full membership would strand the range's only copy on the
  // coordinator's replica — wait (the tick re-drives) until the step's
  // rings match ring 0's width.
  const std::size_t want = plane_.channels(0).view().members.size();
  const auto ring_ready = [&](std::uint32_t s) {
    return s < plane_.shard_count() &&
           plane_.channels(s).view().members.size() >= want;
  };
  // One range at a time, in sorted order: the first not-yet-done range
  // (as observed at THIS node's apply points) decides the current step.
  bool done = true;
  RangeId rid{};
  RangeState st = RangeState::kDone;
  for (const auto& [range, state] : vr.ranges()) {
    if (state == RangeState::kDone) continue;
    done = false;
    rid = range;
    st = state;
    break;
  }
  const std::uint64_t sig =
      done ? (active_epoch_ << 20) | 0xFFFFF
           : (active_epoch_ << 20) | (static_cast<std::uint64_t>(st) << 17) |
                 (static_cast<std::uint64_t>(rid.from) << 9) | rid.to;
  if (!force && sig == last_drive_sig_) return;
  if (force && sig == last_drive_sig_) redrives_.inc();
  last_drive_sig_ = sig;
  last_drive_at_ = plane_.channels(0).now();
  if (done) {
    const auto new_k = static_cast<std::uint32_t>(vr.new_shard_count());
    ByteWriter w(16);
    for (std::size_t s = 0; s < plane_.shard_count(); ++s) {
      w.clear();
      w.u8(static_cast<std::uint8_t>(Msg::kEpochComplete));
      w.u64(active_epoch_);
      w.u32(new_k);
      plane_.channels(s).send(kChannel, w.take());
    }
    ByteWriter d(16);
    d.u8(static_cast<std::uint8_t>(Msg::kResizeDone));
    d.u64(active_epoch_);
    d.u32(new_k);
    plane_.channels(0).send(kChannel, d.take());
    return;
  }
  switch (st) {
    case RangeState::kPending:
      if (!ring_ready(rid.from) || !ring_ready(rid.to)) {
        last_drive_sig_ = 0;  // not actually sent; retry on the next tick
        return;
      }
      send_range_step(Msg::kFreeze, rid);
      break;
    case RangeState::kFrozen:
      if (!ring_ready(rid.to)) {
        last_drive_sig_ = 0;
        return;
      }
      send_chunks_and_commit(rid);
      break;
    case RangeState::kCut:
      send_range_step(Msg::kUnfreeze, rid);
      break;
    case RangeState::kDone:
      break;
  }
}

void ReshardManager::tick() {
  retire_finished_partitions();
  if (!active_) {
    // Idle repair: with every partition retired, the routing table must be
    // the filters' table. Any leftover window (an orphaned next_, or a
    // current table older than the retired epochs') is reset here — belt
    // and braces against completion paths a crash interleaved with.
    bool any_rec = false;
    std::uint32_t k = 0;
    for (const PartitionFilter& pf : filters_) {
      any_rec = any_rec || pf.rec.has_value();
      k = std::max(k, static_cast<std::uint32_t>(pf.cur->shard_count()));
    }
    VersionedRouter& vr = plane_.vrouter();
    if (!any_rec && k != 0 &&
        (vr.migrating() || vr.current().shard_count() != k)) {
      vr.reset(k);
    }
    return;
  }
  const Time now = plane_.channels(0).now();
  drive(now - last_drive_at_ >= kRedriveInterval);
  // A non-coordinator stuck in an open window cannot drive itself out: if
  // the group already finished this epoch while we were away (a crash too
  // short for a view change, so no reconciling dump fired), ask ring 0 for
  // one. Harmless mid-migration — the dump merge is monotonic.
  if (!i_coordinate() && now - last_dump_req_at_ >= kRedriveInterval * 4) {
    last_dump_req_at_ = now;
    ByteWriter w(8);
    w.u8(static_cast<std::uint8_t>(Msg::kDumpRequest));
    plane_.channels(0).send(kChannel, w.take());
  }
}

void ReshardManager::retire_finished_partitions() {
  // kEpochComplete goes out once, when the coordinator finishes the epoch.
  // A partition whose store was down then learns of the completion only
  // from a ring-0 state dump, which is not journaled, so after a restart it
  // recovers the epoch's record (or, if that record never became durable,
  // the old table) and would keep it forever: its moved-out keys stay
  // retained and its replicas diverge from the ones that retired. Any node
  // that knows the epoch closed re-sends the step on that ring, so every
  // replica behind it retires at the same stream point.
  const Time now = plane_.channels(0).now();
  if (now - last_retire_at_ < kRedriveInterval) return;
  const auto k =
      static_cast<std::uint32_t>(plane_.vrouter().current().shard_count());
  for (std::size_t s = 0; s < filters_.size(); ++s) {
    if (!behind(filters_[s], last_completed_epoch_) ||
        !plane_.ring(s).started()) {
      continue;
    }
    last_retire_at_ = now;
    ByteWriter w(16);
    w.u8(static_cast<std::uint8_t>(Msg::kEpochComplete));
    w.u64(last_completed_epoch_);
    w.u32(k);
    plane_.channels(s).send(kChannel, w.take());
  }
}

// ---------------------------------------------------------------------------
// Healing: ring-0 state dumps and journal recovery

void ReshardManager::on_ring0_view(const session::View& v) {
  if (plane_.channels(0).session().generation() != generation_) {
    generation_ = plane_.channels(0).session().generation();
    prev_ring0_members_.clear();
    announced_.clear();
    last_drive_sig_ = 0;
  }
  if (!v.has(plane_.channels(0).self())) return;
  bool gained = false;
  NodeId reconciler = kInvalidNode;
  for (NodeId n : v.members) {
    if (std::find(prev_ring0_members_.begin(), prev_ring0_members_.end(), n) ==
        prev_ring0_members_.end()) {
      gained = true;
    } else if (n < reconciler) {
      reconciler = n;
    }
  }
  const bool send = gained && !prev_ring0_members_.empty() &&
                    reconciler == plane_.channels(0).self();
  prev_ring0_members_ = v.members;
  if (send) send_state_dump();
}

void ReshardManager::send_state_dump() {
  dumps_.inc();
  const VersionedRouter& vr = plane_.vrouter();
  ByteWriter w(128);
  w.u8(static_cast<std::uint8_t>(Msg::kStateDump));
  w.u64(last_completed_epoch_);
  w.u64(active_ ? active_epoch_ : 0);
  w.u32(static_cast<std::uint32_t>(vr.new_shard_count()));
  w.u32(static_cast<std::uint32_t>(vr.current().shard_count()));
  w.u32(static_cast<std::uint32_t>(vr.ranges().size()));
  for (const auto& [r, st] : vr.ranges()) {
    w.u32(r.from);
    w.u32(r.to);
    w.u8(static_cast<std::uint8_t>(st));
  }
  w.u32(static_cast<std::uint32_t>(filters_.size()));
  for (const PartitionFilter& pf : filters_) {
    w.u32(static_cast<std::uint32_t>(pf.cur->shard_count()));
    w.u64(pf.completed_epoch);
    w.u8(pf.rec ? 1 : 0);
    if (!pf.rec) continue;
    w.u64(pf.rec->epoch);
    w.u32(pf.rec->new_k);
    w.u32(static_cast<std::uint32_t>(pf.rec->frozen_out.size()));
    for (const auto& [f, t] : pf.rec->frozen_out) {
      w.u32(f);
      w.u32(t);
    }
    w.u32(static_cast<std::uint32_t>(pf.rec->committed_in.size()));
    for (const auto& [f, t] : pf.rec->committed_in) {
      w.u32(f);
      w.u32(t);
    }
  }
  plane_.channels(0).send(kChannel, w.take());
}

void ReshardManager::adopt_state_dump(ByteReader& r) {
  const std::uint64_t completed = r.u64();
  const std::uint64_t active_epoch = r.u64();
  const std::uint32_t new_k = r.u32();
  const std::uint32_t cur_k = r.u32();
  const std::uint32_t n_ranges = r.u32();
  if (!r.ok() || cur_k == 0 || n_ranges > 1'000'000) return;
  std::vector<std::pair<RangeId, RangeState>> ranges;
  ranges.reserve(n_ranges);
  for (std::uint32_t i = 0; i < n_ranges; ++i) {
    RangeId rid;
    rid.from = r.u32();
    rid.to = r.u32();
    const auto st = static_cast<RangeState>(r.u8());
    ranges.emplace_back(rid, st);
  }
  const std::uint32_t k_live = r.u32();
  if (!r.ok() || k_live > 1'000'000) return;
  struct DumpFilter {
    std::uint32_t cur_k = 0;
    std::uint64_t completed = 0;
    std::optional<EpochRec> rec;
  };
  std::vector<DumpFilter> dump;
  dump.reserve(k_live);
  for (std::uint32_t s = 0; s < k_live; ++s) {
    DumpFilter df;
    df.cur_k = r.u32();
    df.completed = r.u64();
    const bool has_rec = r.u8() != 0;
    if (has_rec) {
      EpochRec rec;
      rec.epoch = r.u64();
      rec.new_k = r.u32();
      const std::uint32_t nf = r.u32();
      if (!r.ok() || nf > 1'000'000) return;
      for (std::uint32_t i = 0; i < nf; ++i) {
        const std::uint32_t f = r.u32();
        const std::uint32_t t = r.u32();
        rec.frozen_out.insert({f, t});
      }
      const std::uint32_t nc = r.u32();
      if (!r.ok() || nc > 1'000'000) return;
      for (std::uint32_t i = 0; i < nc; ++i) {
        const std::uint32_t f = r.u32();
        const std::uint32_t t = r.u32();
        rec.committed_in.insert({f, t});
      }
      df.rec = std::move(rec);
    }
    if (!r.ok()) return;
    dump.push_back(std::move(df));
  }
  if (!r.ok()) return;
  // Staleness guard: never regress to an older epoch than we already know.
  const std::uint64_t dump_max = std::max(completed, active_epoch);
  const std::uint64_t ours =
      std::max(last_completed_epoch_, active_ ? active_epoch_ : 0);
  if (dump_max < ours) return;
  last_completed_epoch_ = std::max(last_completed_epoch_, completed);
  if (active_epoch != 0 && active_epoch > last_completed_epoch_) {
    ensure_grown(active_epoch, new_k);
    for (const auto& [rid, st] : ranges) {
      plane_.vrouter().set_state(rid, st);  // monotonic: only ever raises
    }
  } else if (active_ && active_epoch_ <= last_completed_epoch_) {
    // The group finished our in-flight epoch while we were away.
    plane_.vrouter().complete();
    active_ = false;
    announced_.clear();
  }
  if (!active_ && plane_.vrouter().current().shard_count() != cur_k) {
    plane_.vrouter().reset(cur_k);
  }
  // Per-partition adoption: strictly newer records replace ours; equal
  // epochs merge (records only ever grow, so union is the fresher truth).
  for (std::size_t s = 0; s < dump.size() && s < filters_.size(); ++s) {
    const DumpFilter& df = dump[s];
    PartitionFilter& pf = filters_[s];
    pf.completed_epoch = std::max(pf.completed_epoch, df.completed);
    if (df.cur_k > pf.cur->shard_count()) pf.cur = table(df.cur_k);
    if (df.rec) {
      if (df.rec->epoch > pf.completed_epoch) {
        if (!pf.rec || pf.rec->epoch < df.rec->epoch) {
          pf.rec = EpochRec{df.rec->epoch, df.rec->new_k, table(df.rec->new_k),
                            {}, {}};
        }
        if (pf.rec->epoch == df.rec->epoch) {
          pf.rec->frozen_out.insert(df.rec->frozen_out.begin(),
                                    df.rec->frozen_out.end());
          pf.rec->committed_in.insert(df.rec->committed_in.begin(),
                                      df.rec->committed_in.end());
        }
      }
    }
    if (pf.rec && pf.rec->epoch <= pf.completed_epoch) pf.rec.reset();
    scrub_partition(s);
  }
}

void ReshardManager::after_recovery() {
  // A crash lost whatever this object believed in memory; the recovered
  // per-partition filters are the only truth. Rebuild the routing window
  // from scratch (the harness restarts nodes in place, so stale in-memory
  // state — an open window of a finished epoch, say — must not survive).
  active_ = false;
  announced_.clear();
  last_drive_sig_ = 0;
  // The pre-crash in-memory completion watermark must go too: if the crash
  // lost the kComplete tail, the filters legitimately show the epoch still
  // open — believing "completed" while cur is the OLD table would park the
  // router on a stale table forever (the window below reopens instead and
  // the coordinator / a state dump finishes the job).
  last_completed_epoch_ = 0;
  std::uint64_t ep = 0;
  std::uint32_t nk = 0;
  std::uint32_t oldk = 0;
  std::uint32_t curk = 0;
  for (const PartitionFilter& pf : filters_) {
    last_completed_epoch_ = std::max(last_completed_epoch_, pf.completed_epoch);
    curk = std::max(curk,
                    static_cast<std::uint32_t>(pf.cur->shard_count()));
    if (pf.rec && pf.rec->epoch > ep) {
      ep = pf.rec->epoch;
      nk = pf.rec->new_k;
      oldk = static_cast<std::uint32_t>(pf.cur->shard_count());
    }
  }
  if (ep > last_completed_epoch_ && nk != 0) {
    // Mid-migration crash: reopen the window at the journaled epoch and
    // replay the observed range states; the coordinator re-drives the rest.
    plane_.vrouter().reset(oldk != 0 ? oldk : curk);
    ensure_grown(ep, nk);
    for (const PartitionFilter& pf : filters_) {
      if (!pf.rec || pf.rec->epoch != ep) continue;
      for (const auto& [f, t] : pf.rec->frozen_out) {
        plane_.vrouter().set_state(RangeId{f, t}, RangeState::kFrozen);
      }
      for (const auto& [f, t] : pf.rec->committed_in) {
        plane_.vrouter().set_state(RangeId{f, t}, RangeState::kCut);
      }
    }
  } else {
    plane_.vrouter().reset(curk != 0 ? curk : plane_.shard_count());
  }
}

}  // namespace raincore::data
