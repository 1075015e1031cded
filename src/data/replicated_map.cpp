#include "data/replicated_map.h"

#include <algorithm>

#include "common/log.h"

namespace raincore::data {

namespace {
constexpr const char* kMod = "repmap";
constexpr std::uint32_t kMaxWireEntries = 10'000'000;
}  // namespace

ReplicatedMap::ReplicatedMap(ChannelMux& mux, Channel channel)
    : mux_(mux), channel_(channel) {
  mux_.subscribe(channel_,
                 [this](NodeId origin, const Slice& payload, session::Ordering) {
                   on_message(origin, payload);
                 });
  mux_.subscribe_views([this](const session::View& v) { on_view(v); });
}

void ReplicatedMap::bind_store(storage::ShardStore& store,
                               std::uint16_t stream) {
  store_ = &store;
  stream_ = stream;
  storage::ShardStore::Hooks hooks;
  hooks.begin_recovery = [this] {
    shadow_.clear();
    shadow_tombs_.clear();
    shadow_clock_ = 0;
    shadow_valid_ = false;
  };
  hooks.snapshot = [this] {
    ByteWriter w(64);
    write_state(w);
    return w.take();
  };
  hooks.load_snapshot = [this](ByteReader& r) {
    std::map<std::string, std::string> data;
    std::map<std::string, Stamp> stamps;
    std::map<std::string, Stamp> tombs;
    std::uint64_t clock = 0;
    if (!read_state(r, data, stamps, tombs, clock)) return;
    for (auto& [k, v] : data) shadow_[k] = ShadowEntry{std::move(v), stamps[k]};
    for (auto& [k, st] : tombs) {
      auto it = shadow_tombs_.find(k);
      if (it == shadow_tombs_.end() || it->second < st) shadow_tombs_[k] = st;
    }
    shadow_clock_ = std::max(shadow_clock_, clock);
    shadow_valid_ = true;
  };
  hooks.replay = [this](ByteReader& r) {
    const auto op = static_cast<Op>(r.u8());
    std::string key = r.str();
    std::string value = op == Op::kPut ? r.str() : std::string();
    Stamp st;
    st.lamport = r.u64();
    st.origin = r.u32();
    if (!r.ok()) return;
    shadow_valid_ = true;
    shadow_clock_ = std::max(shadow_clock_, st.lamport);
    if (op == Op::kPut) {
      shadow_[key] = ShadowEntry{std::move(value), st};
      shadow_tombs_.erase(key);
    } else if (op == Op::kErase) {
      shadow_.erase(key);
      auto it = shadow_tombs_.find(key);
      if (it == shadow_tombs_.end() || it->second < st) shadow_tombs_[key] = st;
    }
  };
  store.attach(stream, std::move(hooks));
}

void ReplicatedMap::journal(Op op, const std::string& key,
                            const std::string& value, Stamp stamp) {
  if (store_ == nullptr || !store_->is_open()) return;
  // journal_w_ is a persistent scratch writer: clear() keeps its capacity,
  // so steady-state journalling never allocates (this runs on every apply).
  journal_w_.clear();
  journal_w_.u8(static_cast<std::uint8_t>(op));
  journal_w_.str(key);
  if (op == Op::kPut) journal_w_.str(value);
  journal_w_.u64(stamp.lamport);
  journal_w_.u32(stamp.origin);
  store_->append(stream_, journal_w_.view());
}

void ReplicatedMap::write_state(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(data_.size()));
  for (const auto& [k, v] : data_) {
    w.str(k);
    w.str(v);
    auto it = stamps_.find(k);
    const Stamp st = it != stamps_.end() ? it->second : Stamp{};
    w.u64(st.lamport);
    w.u32(st.origin);
  }
  w.u32(static_cast<std::uint32_t>(tombstones_.size()));
  for (const auto& [k, st] : tombstones_) {
    w.str(k);
    w.u64(st.lamport);
    w.u32(st.origin);
  }
  w.u64(std::max(lamport_, send_lamport_));
}

bool ReplicatedMap::read_state(ByteReader& r,
                               std::map<std::string, std::string>& data,
                               std::map<std::string, Stamp>& stamps,
                               std::map<std::string, Stamp>& tombs,
                               std::uint64_t& clock) const {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxWireEntries) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    Stamp st;
    st.lamport = r.u64();
    st.origin = r.u32();
    if (!r.ok()) return false;
    data[k] = std::move(v);
    stamps[k] = st;
  }
  const std::uint32_t tn = r.u32();
  if (!r.ok() || tn > kMaxWireEntries) return false;
  for (std::uint32_t i = 0; i < tn; ++i) {
    std::string k = r.str();
    Stamp st;
    st.lamport = r.u64();
    st.origin = r.u32();
    if (!r.ok()) return false;
    tombs[k] = st;
  }
  clock = r.u64();
  return r.ok();
}

void ReplicatedMap::adopt_shadow_as_state() {
  // Founding singleton after a restart: the recovered state IS the group
  // state. The shadow is copied, not consumed — if this singleton later
  // merges with the surviving group, reconcile_shadow() still needs it to
  // re-propose recovered-only keys into whatever table wins the merge.
  data_.clear();
  stamps_.clear();
  for (const auto& [k, e] : shadow_) {
    if (!retained_here(k)) continue;  // recovered pre-migration foreign keys
    data_[k] = e.value;
    stamps_[k] = e.stamp;
  }
  tombstones_.clear();
  for (const auto& [k, st] : shadow_tombs_) {
    if (retained_here(k)) tombstones_[k] = st;
  }
  tombstone_order_.clear();
  for (const auto& [k, st] : tombstones_) tombstone_order_.push_back(k);
  lamport_ = std::max(lamport_, shadow_clock_);
  send_lamport_ = std::max(send_lamport_, lamport_);
  RC_INFO(kMod, "node %u ch%u adopted recovered state: %zu entries, %zu tombs",
          mux_.self(), channel_, data_.size(), tombstones_.size());
  if (on_change_) on_change_("", std::nullopt, mux_.self());
}

void ReplicatedMap::on_view(const session::View& v) {
  // A new session generation means this node crash-restarted: the replica
  // state belongs to the previous incarnation and must be dropped before
  // re-syncing as a fresh joiner. The shadow survives the wipe — it was
  // loaded by store.recover() FOR this incarnation.
  if (mux_.session().generation() != generation_) {
    generation_ = mux_.session().generation();
    data_.clear();
    stamps_.clear();
    tombstones_.clear();
    tombstone_order_.clear();
    my_writes_.clear();
    my_writes_order_.clear();
    replay_.clear();
    synced_ = false;
    sync_requested_ = false;
    was_member_ = false;
    prev_members_.clear();
  }
  if (!v.has(mux_.self())) return;
  bool survivor = was_member_;  // member of a previous view, not a fresh joiner
  if (!was_member_) {
    was_member_ = true;
    if (v.members.size() == 1) {
      // Founding member of a fresh group: nothing to catch up with — except
      // our own durable past, which becomes the group state outright.
      synced_ = true;
      if (shadow_valid_) adopt_shadow_as_state();
    } else if (!synced_ && !sync_requested_) {
      // Joiner: ask the group for a snapshot through the agreed stream.
      sync_requested_ = true;
      sync_ops_.inc();
      ByteWriter w(1);
      w.u8(static_cast<std::uint8_t>(Op::kSyncRequest));
      mux_.send(channel_, w.take());
    }
  }
  // Merge reconciliation: the view gained members (two formerly independent
  // sub-groups joined, §2.4 strategy 2), so replica contents may genuinely
  // differ. The lowest-id *surviving* member multicasts its full state; the
  // agreed stream makes every replica adopt it at the same point.
  // The sender must be the lowest id that was already a member before this
  // change: a freshly gained node may have been silently out of the ring
  // (false removal, same incarnation — no re-sync) and hold stale contents.
  // Sub-groups elect independently; the agreed stream orders the resulting
  // reconciles identically at every replica, so all of them still converge.
  bool gained = false;
  NodeId reconciler = kInvalidNode;
  for (NodeId n : v.members) {
    if (std::find(prev_members_.begin(), prev_members_.end(), n) ==
        prev_members_.end()) {
      gained = true;
    } else if (n < reconciler) {
      reconciler = n;
    }
  }
  RC_DEBUG(kMod,
           "node %u ch%u view %llu (%zu members) gained=%d survivor=%d "
           "synced=%d reconciler=%u",
           mux_.self(), channel_, static_cast<unsigned long long>(v.view_id),
           v.members.size(), gained ? 1 : 0, survivor ? 1 : 0, synced_ ? 1 : 0,
           reconciler);
  // One reconcile per member-gaining *transition* — the session layer only
  // announces a view when the membership actually changed, so no further
  // dedup is needed. (Keying this on view_id is wrong: view ids are token
  // state and collide across lineages after regenerations, which used to
  // suppress the reconcile for a re-merged view whose id matched an earlier
  // one whose reconcile never reached the gained members.)
  if (survivor && gained && synced_ && !prev_members_.empty() &&
      mux_.self() == reconciler) {
    sync_ops_.inc();
    ByteWriter w(64);
    w.u8(static_cast<std::uint8_t>(Op::kReconcile));
    write_state(w);
    mux_.send(channel_, w.take());
  }
  prev_members_ = v.members;
}

ReplicatedMap::Stamp ReplicatedMap::next_send_stamp() {
  send_lamport_ = std::max(send_lamport_, lamport_) + 1;
  return Stamp{send_lamport_, mux_.self()};
}

void ReplicatedMap::put(const std::string& key, const std::string& value) {
  puts_.inc();
  const Stamp st = next_send_stamp();
  // Record the intent in the own-write ledger at SEND time, not just at
  // apply: if a reconcile adoption runs while this op is still in flight,
  // reassert_own_writes must re-issue the in-flight op, not the previous
  // generation (a fresh-stamped re-put of the older value would outrace and
  // undo this one). The apply-time note with the same stamp is then a no-op.
  note_own_write(key, st, value);
  ByteWriter w(key.size() + value.size() + 32);
  w.u8(static_cast<std::uint8_t>(Op::kPut));
  w.str(key);
  w.str(value);
  // Multicast timestamp: replicas measure their convergence lag against it
  // (the simulator's virtual clock is global, so the delta is exact).
  w.u64(static_cast<std::uint64_t>(mux_.now()));
  w.u64(st.lamport);
  mux_.send(channel_, w.take());
}

void ReplicatedMap::erase(const std::string& key) {
  erases_.inc();
  const Stamp st = next_send_stamp();
  // Send-time ledger note, same rationale as put().
  note_own_write(key, st, std::nullopt);
  ByteWriter w(key.size() + 24);
  w.u8(static_cast<std::uint8_t>(Op::kErase));
  w.str(key);
  w.u64(static_cast<std::uint64_t>(mux_.now()));
  w.u64(st.lamport);
  mux_.send(channel_, w.take());
}

std::optional<std::string> ReplicatedMap::get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void ReplicatedMap::add_tombstone(const std::string& key, Stamp stamp) {
  auto it = tombstones_.find(key);
  if (it != tombstones_.end()) {
    if (it->second < stamp) it->second = stamp;
    return;  // already in the eviction order
  }
  tombstones_.emplace(key, stamp);
  tombstone_order_.push_back(key);
  while (tombstones_.size() > kMaxTombstones && !tombstone_order_.empty()) {
    const std::string oldest = std::move(tombstone_order_.front());
    tombstone_order_.pop_front();
    tombstones_.erase(oldest);  // may be a stale order entry (re-put key)
  }
}

void ReplicatedMap::note_own_write(const std::string& key, Stamp stamp,
                                   std::optional<std::string> value) {
  auto it = my_writes_.find(key);
  if (it != my_writes_.end()) {
    // LWW, like every other table: a healing re-proposal of one of our OLD
    // writes can apply after a newer own write (its bounced copy circling
    // through a migration, say) — it must not displace the newer ledger
    // entry, or reassert_own_writes would resurrect history with a fresh
    // stamp.
    if (it->second.stamp < stamp) it->second = OwnWrite{stamp, std::move(value)};
    return;
  }
  my_writes_.emplace(key, OwnWrite{stamp, std::move(value)});
  my_writes_order_.push_back(key);
  while (my_writes_.size() > kMaxOwnWrites && !my_writes_order_.empty()) {
    const std::string oldest = std::move(my_writes_order_.front());
    my_writes_order_.pop_front();
    my_writes_.erase(oldest);
  }
}

void ReplicatedMap::apply_put(const std::string& key, std::string value,
                              NodeId origin, Stamp stamp) {
  RC_TRACE(kMod, "node %u ch%u put %s=%s (origin %u)", mux_.self(), channel_,
           key.c_str(), value.c_str(), origin);
  lamport_ = std::max(lamport_, stamp.lamport);
  data_[key] = std::move(value);
  stamps_[key] = stamp;
  tombstones_.erase(key);
  // A live-stream apply supersedes whatever the shadow recovered for the key.
  shadow_.erase(key);
  shadow_tombs_.erase(key);
  if (origin == mux_.self()) note_own_write(key, stamp, data_[key]);
  journal(Op::kPut, key, data_[key], stamp);
  if (on_change_) on_change_(key, data_[key], origin);
}

void ReplicatedMap::apply_erase(const std::string& key, NodeId origin,
                                Stamp stamp) {
  lamport_ = std::max(lamport_, stamp.lamport);
  const bool existed = data_.erase(key) > 0;
  stamps_.erase(key);
  add_tombstone(key, stamp);
  shadow_.erase(key);
  if (origin == mux_.self()) note_own_write(key, stamp, std::nullopt);
  journal(Op::kErase, key, std::string(), stamp);
  if (existed && on_change_) on_change_(key, std::nullopt, origin);
}

void ReplicatedMap::send_repropose(Op op, const std::string& key,
                                   const std::string& value, Stamp stamp) {
  ByteWriter w(key.size() + value.size() + 16);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  if (op == Op::kReproposePut) w.str(value);
  w.u64(stamp.lamport);
  w.u32(stamp.origin);
  mux_.send(channel_, w.take());
}

void ReplicatedMap::apply_repropose_put(const std::string& key,
                                        std::string value, Stamp stamp) {
  // LWW guard over replicated state only (every replica must take the same
  // branch at the same point of the agreed stream): a same-or-newer live
  // entry or tombstone means this recovered mutation is history — drop it.
  auto s = stamps_.find(key);
  if (s != stamps_.end() && !(s->second < stamp)) {
    return;
  }
  auto t = tombstones_.find(key);
  if (t != tombstones_.end() && !(t->second < stamp)) {
    return;
  }
  lamport_ = std::max(lamport_, stamp.lamport);
  data_[key] = std::move(value);
  stamps_[key] = stamp;
  tombstones_.erase(key);
  // Superseded shadow state (ours may be the very entry just re-proposed).
  auto sh = shadow_.find(key);
  if (sh != shadow_.end() && !(stamp < sh->second.stamp)) shadow_.erase(sh);
  auto sht = shadow_tombs_.find(key);
  if (sht != shadow_tombs_.end() && !(stamp < sht->second)) {
    shadow_tombs_.erase(sht);
  }
  if (stamp.origin == mux_.self()) note_own_write(key, stamp, data_[key]);
  journal(Op::kPut, key, data_[key], stamp);
  if (on_change_) on_change_(key, data_[key], stamp.origin);
}

void ReplicatedMap::apply_repropose_erase(const std::string& key,
                                          Stamp stamp) {
  auto s = stamps_.find(key);
  if (s != stamps_.end() && !(s->second < stamp)) {
    return;
  }
  auto t = tombstones_.find(key);
  if (t != tombstones_.end() && !(t->second < stamp)) {
    return;
  }
  lamport_ = std::max(lamport_, stamp.lamport);
  const bool existed = data_.erase(key) > 0;
  stamps_.erase(key);
  add_tombstone(key, stamp);
  auto sh = shadow_.find(key);
  if (sh != shadow_.end() && !(stamp < sh->second.stamp)) shadow_.erase(sh);
  auto sht = shadow_tombs_.find(key);
  if (sht != shadow_tombs_.end() && !(stamp < sht->second)) {
    shadow_tombs_.erase(sht);
  }
  if (stamp.origin == mux_.self()) note_own_write(key, stamp, std::nullopt);
  journal(Op::kErase, key, std::string(), stamp);
  if (existed && on_change_) on_change_(key, std::nullopt, stamp.origin);
}

void ReplicatedMap::reconcile_shadow() {
  if (!shadow_valid_) return;
  // NOT consumed: wholesale adoptions can arrive more than once after a
  // merge (each side of the merge announces its own reconcile/epoch into
  // the agreed stream), and a later adoption may carry a table that never
  // saw our recovered keys. The shadow therefore persists for the whole
  // incarnation and the reconcile re-runs after every adoption — it is
  // idempotent because live state wins and same-or-newer tombstones win.
  // Advancing our clocks past every recovered stamp first guarantees that
  // anything written after recovery outranks the shadow and can never be
  // clobbered by a re-run.
  lamport_ = std::max(lamport_, shadow_clock_);
  send_lamport_ = std::max(send_lamport_, lamport_);
  std::size_t reproposed = 0;
  for (const auto& [k, e] : shadow_) {
    auto s = stamps_.find(k);
    if (s != stamps_.end() && !(s->second < e.stamp)) {
      continue;  // live state wins when same-or-newer
    }
    // Live absent OR strictly older than what we durably witnessed: after a
    // cluster-wide restart the surviving group may have recovered from a
    // staler log than ours, rolling back past a write that was acknowledged
    // durable here. Re-propose our copy — with its ORIGINAL stamp, so that
    // if another node concurrently re-proposes an older generation of the
    // same key, last-writer-wins resolves the race the right way whatever
    // order the proposals land in.
    auto t = tombstones_.find(k);
    if (t != tombstones_.end() && !(t->second < e.stamp)) {
      continue;  // deleted (same-or-newer) while we were down — stays dead
    }
    ++reproposed;
    reproposed_.inc();
    send_repropose(Op::kReproposePut, k, e.value, e.stamp);
  }
  for (const auto& [k, st] : shadow_tombs_) {
    auto t = tombstones_.find(k);
    if (t != tombstones_.end() && !(t->second < st)) {
      continue;  // the group already remembers a same-or-newer deletion
    }
    auto s = stamps_.find(k);
    if (s != stamps_.end() && !(s->second < st)) {
      continue;  // a genuinely newer live write outranks our tombstone
    }
    // Either the live entry is a resurrection from an older history, or the
    // group has no memory of this durably-witnessed deletion at all. Propose
    // the tombstone (original stamp) so a belated re-proposal of the dead
    // value from a third replica loses the LWW race deterministically.
    ++reproposed;
    reproposed_.inc();
    send_repropose(Op::kReproposeErase, k, std::string(), st);
  }
  if (reproposed > 0) {
    RC_INFO(kMod, "node %u ch%u re-proposed %zu recovered mutations",
            mux_.self(), channel_, reproposed);
  }
}

void ReplicatedMap::reassert_own_writes() {
  // Mirror of the lock manager's epoch self-heal: a reconcile adoption can
  // wipe writes this node already saw applied (they were acknowledged). The
  // ledger holds our latest write per key; anything the adopted table lost
  // — and no newer stamp supersedes — goes back through the agreed stream.
  for (const auto& [k, w] : my_writes_) {
    if (w.value) {
      auto s = stamps_.find(k);
      if (s != stamps_.end() && !(s->second < w.stamp)) continue;
      auto t = tombstones_.find(k);
      if (t != tombstones_.end() && !(t->second < w.stamp)) continue;
      reasserted_.inc();
      put(k, *w.value);
    } else {
      auto s = stamps_.find(k);
      auto t = tombstones_.find(k);
      if (s != stamps_.end() && s->second < w.stamp) {
        // A stale generation of the entry resurfaced: cancel it with a
        // fresh stamp through our own stream.
        reasserted_.inc();
        erase(k);
      } else if (s == stamps_.end() &&
                 (t == tombstones_.end() || t->second < w.stamp)) {
        // The adopted table has neither the entry nor any memory of its
        // deletion (a merge replaced it with a side that never saw the
        // erase, or the tombstone aged out). Re-propose the tombstone with
        // its ORIGINAL stamp: if the key migrated away meanwhile, the
        // bounce re-routes it to the owner, where LWW lets it kill exactly
        // the generations older than the acknowledged deletion.
        reasserted_.inc();
        send_repropose(Op::kReproposeErase, k, std::string(), w.stamp);
      }
    }
  }
}

void ReplicatedMap::on_message(NodeId origin, const Slice& payload) {
  ByteReader r(payload);
  auto op = static_cast<Op>(r.u8());
  switch (op) {
    case Op::kPut: {
      std::string key = r.str();
      std::string value = r.str();
      Time sent_at = static_cast<Time>(r.u64());
      Stamp st;
      st.lamport = r.u64();
      st.origin = origin;
      if (!r.ok()) return;
      convergence_lag_.record_time(mux_.now() - sent_at);
      if (sync_requested_ && !synced_) replay_.emplace_back(origin, payload);
      if (!owned_here(key)) {
        // Key migrated away: every replica skips at this same stream point;
        // the origin re-routes its write — ORIGINAL stamp — to the owner.
        bounced_.inc();
        if (origin == mux_.self() && bounce_fn_) {
          bounce_fn_(false, key, value, st);
        }
        return;
      }
      apply_put(key, std::move(value), origin, st);
      break;
    }
    case Op::kErase: {
      std::string key = r.str();
      Time sent_at = static_cast<Time>(r.u64());
      Stamp st;
      st.lamport = r.u64();
      st.origin = origin;
      if (!r.ok()) return;
      convergence_lag_.record_time(mux_.now() - sent_at);
      if (sync_requested_ && !synced_) replay_.emplace_back(origin, payload);
      if (!owned_here(key)) {
        bounced_.inc();
        if (origin == mux_.self() && bounce_fn_) {
          bounce_fn_(true, key, std::string(), st);
        }
        return;
      }
      apply_erase(key, origin, st);
      break;
    }
    case Op::kSyncRequest: {
      if (origin == mux_.self()) return;
      // The lowest-id synced member answers; everyone computes the same
      // responder from the shared view, so exactly one snapshot is sent.
      NodeId responder = kInvalidNode;
      for (NodeId n : mux_.view().members) {
        if (n != origin && n < responder) responder = n;
      }
      if (responder != mux_.self() || !synced_) return;
      sync_ops_.inc();
      ByteWriter w(64);
      w.u8(static_cast<std::uint8_t>(Op::kSnapshot));
      w.u32(origin);  // addressee
      write_state(w);
      mux_.send(channel_, w.take());
      break;
    }
    case Op::kSnapshot: {
      NodeId addressee = r.u32();
      if (!r.ok()) return;
      if (addressee != mux_.self() || synced_) return;
      std::map<std::string, std::string> data;
      std::map<std::string, Stamp> stamps;
      std::map<std::string, Stamp> tombs;
      std::uint64_t clock = 0;
      if (!read_state(r, data, stamps, tombs, clock)) return;
      strip_foreign(data, stamps, tombs);
      reroute_strangers();  // our dying pre-sync state may outrank the owner's
      data_ = std::move(data);
      stamps_ = std::move(stamps);
      tombstones_ = std::move(tombs);
      tombstone_order_.clear();
      for (const auto& [k, st] : tombstones_) tombstone_order_.push_back(k);
      lamport_ = std::max(lamport_, clock);
      synced_ = true;
      sync_ops_.inc();
      // Replay the operations ordered after our sync request but before the
      // snapshot message; apply-by-overwrite makes this idempotent.
      std::vector<std::pair<NodeId, Slice>> replay;
      replay.swap(replay_);
      for (auto& [o, p] : replay) on_message(o, p);
      RC_INFO(kMod, "node %u synced snapshot of %zu entries (+%zu replayed)",
              mux_.self(), data_.size(), replay.size());
      // Anything we recovered that the group does not know about (and did
      // not tombstone) goes back through the agreed stream.
      reconcile_shadow();
      // The adopted table never went through our WAL: checkpoint it so a
      // crash right after the sync still recovers the full state.
      if (store_ != nullptr && store_->is_open()) store_->compact();
      if (on_change_) on_change_("", std::nullopt, origin);
      break;
    }
    case Op::kReproposePut: {
      std::string key = r.str();
      std::string value = r.str();
      Stamp st;
      st.lamport = r.u64();
      st.origin = r.u32();  // original writer, NOT the re-proposing sender
      if (!r.ok()) return;
      if (sync_requested_ && !synced_) replay_.emplace_back(origin, payload);
      if (!owned_here(key)) {
        // A healing re-proposal of a key that has since migrated: the
        // SENDER (not the original writer) re-routes it to the owner.
        bounced_.inc();
        if (origin == mux_.self() && bounce_fn_) bounce_fn_(false, key, value, st);
        return;
      }
      apply_repropose_put(key, std::move(value), st);
      break;
    }
    case Op::kReproposeErase: {
      std::string key = r.str();
      Stamp st;
      st.lamport = r.u64();
      st.origin = r.u32();
      if (!r.ok()) return;
      if (sync_requested_ && !synced_) replay_.emplace_back(origin, payload);
      if (!owned_here(key)) {
        bounced_.inc();
        if (origin == mux_.self() && bounce_fn_) {
          bounce_fn_(true, key, std::string(), st);
        }
        return;
      }
      apply_repropose_erase(key, st);
      break;
    }
    case Op::kReconcile: {
      std::map<std::string, std::string> data;
      std::map<std::string, Stamp> stamps;
      std::map<std::string, Stamp> tombs;
      std::uint64_t clock = 0;
      if (!read_state(r, data, stamps, tombs, clock)) return;
      strip_foreign(data, stamps, tombs);
      reroute_strangers();  // our dying state may hold migrated-away keys
      // Everyone — the sender included — replaces contents at this point in
      // the agreed stream, so diverged replicas reconverge identically.
      data_ = std::move(data);
      stamps_ = std::move(stamps);
      tombstones_ = std::move(tombs);
      tombstone_order_.clear();
      for (const auto& [k, st] : tombstones_) tombstone_order_.push_back(k);
      lamport_ = std::max(lamport_, clock);
      synced_ = true;
      sync_ops_.inc();
      replay_.clear();
      RC_INFO(kMod, "node %u reconciled to %zu entries from %u", mux_.self(),
              data_.size(), origin);
      reconcile_shadow();
      reassert_own_writes();
      if (store_ != nullptr && store_->is_open()) store_->compact();
      if (on_change_) on_change_("", std::nullopt, origin);
      break;
    }
  }
}

// --- elastic-resharding hooks (DESIGN.md §5j) ------------------------------

void ReplicatedMap::set_migration_filter(std::size_t self_shard, OwnerFn owner,
                                         BounceFn bounce, RetainFn retain) {
  self_shard_ = self_shard;
  owner_fn_ = std::move(owner);
  bounce_fn_ = std::move(bounce);
  retain_fn_ = std::move(retain);
}

void ReplicatedMap::migrate_propose(bool erase, const std::string& key,
                                    const std::string& value, Stamp stamp) {
  send_repropose(erase ? Op::kReproposeErase : Op::kReproposePut, key, value,
                 stamp);
}

std::vector<Bytes> ReplicatedMap::collect_range_chunks(
    const KeyPred& pred) const {
  // Self-contained chunks: [u32 records]([u8 tomb][key]([value])[stamp])*.
  // Every record replays through the strict-LWW repropose path at the
  // destination, so chunk application is idempotent and loses races against
  // genuinely newer destination writes.
  std::vector<Bytes> out;
  ByteWriter w(256);
  std::uint32_t records = 0;
  auto flush = [&] {
    if (records == 0) return;
    ByteWriter chunk(8 + w.view().size());
    chunk.u32(records);
    chunk.raw(w.view().data(), w.view().size());
    out.push_back(chunk.take());
    w.clear();
    records = 0;
  };
  auto record = [&](bool tomb, const std::string& key, const std::string& value,
                    Stamp st) {
    w.u8(tomb ? 1 : 0);
    w.str(key);
    if (!tomb) w.str(value);
    w.u64(st.lamport);
    w.u32(st.origin);
    ++records;
    if (w.view().size() >= kMigrationChunkBytes) flush();
  };
  for (const auto& [k, v] : data_) {
    if (!pred(k)) continue;
    auto it = stamps_.find(k);
    record(false, k, v, it != stamps_.end() ? it->second : Stamp{});
  }
  for (const auto& [k, st] : tombstones_) {
    if (!pred(k)) continue;
    record(true, k, std::string(), st);
  }
  flush();
  return out;
}

void ReplicatedMap::apply_migration_chunk(ByteReader& r) {
  const std::uint32_t records = r.u32();
  if (!r.ok() || records > kMaxWireEntries) return;
  for (std::uint32_t i = 0; i < records && r.ok(); ++i) {
    const bool tomb = r.u8() != 0;
    std::string key = r.str();
    std::string value = tomb ? std::string() : r.str();
    Stamp st;
    st.lamport = r.u64();
    st.origin = r.u32();
    if (!r.ok()) return;
    migrated_in_.inc();
    if (tomb) {
      apply_repropose_erase(key, st);
    } else {
      apply_repropose_put(key, std::move(value), st);
    }
  }
}

std::size_t ReplicatedMap::drop_range(const KeyPred& pred, bool reroute) {
  // A hand-off, not a delete: no change events, no tombstones, no journal
  // records — the caller compacts the bound store afterwards so the
  // snapshot hook persists the post-drop state.
  std::size_t dropped = 0;
  for (auto it = data_.begin(); it != data_.end();) {
    if (pred(it->first)) {
      if (reroute && bounce_fn_) {
        auto st = stamps_.find(it->first);
        bounce_fn_(false, it->first, it->second,
                   st != stamps_.end() ? st->second : Stamp{});
      }
      stamps_.erase(it->first);
      it = data_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  for (auto it = tombstones_.begin(); it != tombstones_.end();) {
    if (pred(it->first)) {
      if (reroute && bounce_fn_) {
        bounce_fn_(true, it->first, std::string(), it->second);
      }
      it = tombstones_.erase(it);
    } else {
      ++it;
    }
  }
  // The own-write ledger and recovery shadow follow the keys out — a later
  // reconcile/reassert must not resurrect what this partition handed off.
  for (auto it = my_writes_.begin(); it != my_writes_.end();) {
    it = pred(it->first) ? my_writes_.erase(it) : std::next(it);
  }
  for (auto it = shadow_.begin(); it != shadow_.end();) {
    it = pred(it->first) ? shadow_.erase(it) : std::next(it);
  }
  for (auto it = shadow_tombs_.begin(); it != shadow_tombs_.end();) {
    it = pred(it->first) ? shadow_tombs_.erase(it) : std::next(it);
  }
  return dropped;
}

void ReplicatedMap::reroute_strangers() {
  if (!bounce_fn_ || (!owner_fn_ && !retain_fn_)) return;
  for (const auto& [k, v] : data_) {
    if (retained_here(k)) continue;
    auto st = stamps_.find(k);
    bounce_fn_(false, k, v, st != stamps_.end() ? st->second : Stamp{});
  }
  for (const auto& [k, st] : tombstones_) {
    if (retained_here(k)) continue;
    bounce_fn_(true, k, std::string(), st);
  }
}

void ReplicatedMap::strip_foreign(std::map<std::string, std::string>& data,
                                  std::map<std::string, Stamp>& stamps,
                                  std::map<std::string, Stamp>& tombs) const {
  if (!owner_fn_ && !retain_fn_) return;
  for (auto it = data.begin(); it != data.end();) {
    if (!retained_here(it->first)) {
      stamps.erase(it->first);
      it = data.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = tombs.begin(); it != tombs.end();) {
    if (!retained_here(it->first)) {
      it = tombs.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace raincore::data
