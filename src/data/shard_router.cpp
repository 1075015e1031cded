#include "data/shard_router.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "data/reshard.h"

namespace raincore::data {

// ---------------------------------------------------------------------------
// ShardRouter

std::uint64_t ShardRouter::hash64(std::string_view data) {
  // FNV-1a, 64-bit, plus a splitmix64 finalizer: raw FNV of similar short
  // strings clusters in the high bits, which is exactly where ring-position
  // ordering lives. The composite is a frozen contract of the key→shard
  // mapping — every node must compute it identically.
  std::uint64_t h = 14695981039346656037ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

ShardRouter::ShardRouter(std::size_t shards, std::size_t points_per_shard)
    : shards_(shards) {
  assert(shards > 0);
  ring_.reserve(shards * points_per_shard);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t v = 0; v < points_per_shard; ++v) {
      const std::string label =
          "shard-" + std::to_string(s) + "#" + std::to_string(v);
      ring_.emplace_back(hash64(label), static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::shard_of(std::string_view key) const {
  if (shards_ == 1) return 0;
  const std::uint64_t h = hash64(key);
  // First virtual point at or after the key's position, wrapping at the top.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, std::uint32_t{0}));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

// ---------------------------------------------------------------------------
// VersionedRouter

std::vector<RangeId> VersionedRouter::moved_ranges(const ShardRouter& oldr,
                                                   const ShardRouter& newr) {
  // Owner of every hash position p under a table: the shard of the first
  // virtual point at-or-after p (wrapping) — the shard_of contract. Between
  // two consecutive points of the MERGED old+new rings no owner changes
  // under either table, so walking the merged arcs enumerates every
  // (old owner, new owner) pair exactly.
  auto owner_at = [](const ShardRouter& r, std::uint64_t pos) {
    const auto& pts = r.points();
    auto it = std::lower_bound(pts.begin(), pts.end(),
                               std::make_pair(pos, std::uint32_t{0}));
    if (it == pts.end()) it = pts.begin();
    return it->second;
  };
  std::vector<std::uint64_t> bounds;
  bounds.reserve(oldr.points().size() + newr.points().size());
  for (const auto& p : oldr.points()) bounds.push_back(p.first);
  for (const auto& p : newr.points()) bounds.push_back(p.first);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::set<RangeId> moved;
  for (std::uint64_t b : bounds) {
    // Every hash in the arc ending at boundary b resolves to owner_at(b)
    // under both tables (no interior points by construction).
    const std::uint32_t from = owner_at(oldr, b);
    const std::uint32_t to = owner_at(newr, b);
    if (from != to) moved.insert(RangeId{from, to});
  }
  return std::vector<RangeId>(moved.begin(), moved.end());
}

void VersionedRouter::begin(std::size_t new_shards, std::uint64_t new_epoch) {
  if (next_) return;
  next_.emplace(new_shards);
  epoch_ = new_epoch;
  ranges_.clear();
  for (const RangeId& r : moved_ranges(cur_, *next_)) {
    ranges_[r] = RangeState::kPending;
  }
}

void VersionedRouter::complete() {
  if (!next_) return;
  cur_ = std::move(*next_);
  next_.reset();
  ranges_.clear();
}

std::optional<RangeId> VersionedRouter::range_of(std::string_view key) const {
  if (!next_) return std::nullopt;
  const auto from = static_cast<std::uint32_t>(cur_.shard_of(key));
  const auto to = static_cast<std::uint32_t>(next_->shard_of(key));
  if (from == to) return std::nullopt;
  return RangeId{from, to};
}

RangeState VersionedRouter::state(const RangeId& r) const {
  auto it = ranges_.find(r);
  return it != ranges_.end() ? it->second : RangeState::kDone;
}

void VersionedRouter::set_state(const RangeId& r, RangeState s) {
  auto it = ranges_.find(r);
  if (it != ranges_.end() && it->second < s) it->second = s;
}

bool VersionedRouter::all_done() const {
  for (const auto& [r, s] : ranges_) {
    if (s != RangeState::kDone) return false;
  }
  return true;
}

std::size_t VersionedRouter::route_write(std::string_view key) const {
  if (!next_) return cur_.shard_of(key);
  auto rid = range_of(key);
  if (!rid) return cur_.shard_of(key);  // not moving this epoch
  // Source owns until this node observes the freeze; after that every
  // write goes to the destination (bounced if the observation raced).
  return state(*rid) >= RangeState::kFrozen ? rid->to : rid->from;
}

VersionedRouter::ReadRoute VersionedRouter::route_read(
    std::string_view key) const {
  if (!next_) return ReadRoute{cur_.shard_of(key), std::nullopt};
  auto rid = range_of(key);
  if (!rid) return ReadRoute{cur_.shard_of(key), std::nullopt};
  if (state(*rid) == RangeState::kDone) {
    return ReadRoute{rid->to, std::nullopt};
  }
  // Destination first (it may already hold fresher writes routed by nodes
  // ahead of us), old owner as the bounded-redirect fallback.
  return ReadRoute{rid->to, rid->from};
}

// ---------------------------------------------------------------------------
// ShardedDataPlane

ShardedDataPlane::ShardedDataPlane(session::SessionMux& mux,
                                   std::size_t shards,
                                   session::SessionConfig ring_cfg,
                                   storage::StorageConfig storage_cfg)
    : mux_(mux),
      vrouter_(shards),
      ring_cfg_(std::move(ring_cfg)),
      storage_cfg_(std::move(storage_cfg)) {
  rings_.reserve(shards);
  channels_.reserve(shards);
  grow_to(shards);
}

void ShardedDataPlane::grow_to(std::size_t new_shards) {
  while (rings_.size() < new_shards) {
    const std::size_t s = rings_.size();
    session::SessionConfig cfg = ring_cfg_;
    const std::string prefix = "shard" + std::to_string(s) + ".";
    cfg.metrics_prefix = prefix;
    auto group = static_cast<transport::MuxGroup>(s);
    session::SessionNode& ring = mux_.create_ring(group, std::move(cfg));
    rings_.push_back(&ring);
    channels_.push_back(std::make_unique<ChannelMux>(ring));
    if (!storage_cfg_.dir.empty()) {
      stores_.push_back(std::make_unique<storage::ShardStore>(
          storage_cfg_, storage_cfg_.dir + "/shard" + std::to_string(s),
          prefix));
    }
  }
}

void ShardedDataPlane::flush_storage() {
  for (auto& st : stores_) st->flush();
}

void ShardedDataPlane::crash_storage() {
  for (auto& st : stores_) st->crash();
}

bool ShardedDataPlane::open_store(std::size_t shard) {
  return durable() ? stores_.at(shard)->open() : false;
}

void ShardedDataPlane::recover_store(std::size_t shard) {
  if (durable()) stores_.at(shard)->recover();
}

void ShardedDataPlane::crash_store(std::size_t shard) {
  if (durable()) stores_.at(shard)->crash();
}

metrics::Snapshot ShardedDataPlane::storage_snapshot() const {
  metrics::Snapshot out;
  for (const auto& st : stores_) out.merge(st->metrics().snapshot());
  return out;
}

void ShardedDataPlane::found_all() {
  for (auto* ring : rings_) ring->found();
}

bool ShardedDataPlane::all_converged(std::size_t n) const {
  for (auto* ring : rings_) {
    if (ring->view().members.size() != n) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ShardedMap

ShardedMap::ShardedMap(ShardedDataPlane& plane, Channel channel)
    : plane_(plane), channel_(channel) {
  shards_.reserve(plane_.shard_count());
  grow();
}

void ShardedMap::grow() {
  while (shards_.size() < plane_.shard_count()) {
    const std::size_t s = shards_.size();
    shards_.push_back(
        std::make_unique<ReplicatedMap>(plane_.channels(s), channel_));
    if (auto* store = plane_.store(s)) {
      shards_.back()->bind_store(*store, channel_);
    }
    wire_partition(s);
  }
}

void ShardedMap::wire_partition(std::size_t s) {
  // The installed lambda reads the handler members at fire time, so
  // set_change_handler after construction (the common call order) works
  // without re-wiring every partition.
  shards_[s]->set_change_handler(
      [this, s](const std::string& key, const std::optional<std::string>& value,
                NodeId origin) {
        if (change_fn_) change_fn_(key, value, origin);
        if (shard_change_fn_) shard_change_fn_(s, key, value, origin);
      });
}

std::size_t ShardedMap::write_shard_of(const std::string& key) const {
  return plane_.vrouter().route_write(key);
}

void ShardedMap::put(const std::string& key, const std::string& value) {
  const std::size_t s = write_shard_of(key);
  if (reshard_ != nullptr) reshard_->ensure_announced(s);
  shards_[s]->put(key, value);
}

void ShardedMap::erase(const std::string& key) {
  const std::size_t s = write_shard_of(key);
  if (reshard_ != nullptr) reshard_->ensure_announced(s);
  shards_[s]->erase(key);
}

std::optional<std::string> ShardedMap::get(const std::string& key) const {
  const auto rr = plane_.vrouter().route_read(key);
  auto v = shards_[rr.primary]->get(key);
  if (v || !rr.fallback) return v;
  // A destination tombstone means the key died AFTER migrating — the stale
  // source copy must not resurrect it through the fallback.
  if (shards_[rr.primary]->tombstoned(key)) return std::nullopt;
  return shards_[*rr.fallback]->get(key);
}

bool ShardedMap::contains(const std::string& key) const {
  return get(key).has_value();
}

std::size_t ShardedMap::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

bool ShardedMap::synced() const {
  for (const auto& s : shards_) {
    if (!s->synced()) return false;
  }
  return true;
}

void ShardedMap::set_change_handler(ReplicatedMap::ChangeFn fn) {
  change_fn_ = std::move(fn);
}

void ShardedMap::set_shard_change_handler(ShardChangeFn fn) {
  shard_change_fn_ = std::move(fn);
}

// ---------------------------------------------------------------------------
// ShardedLockManager

ShardedLockManager::ShardedLockManager(ShardedDataPlane& plane,
                                       Channel channel)
    : plane_(plane),
      channel_(channel),
      req_ids_(std::make_shared<LockManager::ReqIdSource>()) {
  shards_.reserve(plane_.shard_count());
  grow();
}

void ShardedLockManager::grow() {
  while (shards_.size() < plane_.shard_count()) {
    const std::size_t s = shards_.size();
    shards_.push_back(
        std::make_unique<LockManager>(plane_.channels(s), channel_));
    if (auto* store = plane_.store(s)) {
      shards_.back()->bind_store(*store, channel_);
    }
    wire_partition(s);
  }
}

void ShardedLockManager::wire_partition(std::size_t s) {
  shards_[s]->share_req_ids(req_ids_);
}

std::size_t ShardedLockManager::write_shard_of(const std::string& name) const {
  return plane_.vrouter().route_write(name);
}

void ShardedLockManager::acquire(const std::string& name,
                                 LockManager::GrantFn on_granted) {
  const std::size_t s = write_shard_of(name);
  if (reshard_ != nullptr) reshard_->ensure_announced(s);
  shards_[s]->acquire(name, std::move(on_granted));
}

void ShardedLockManager::release(const std::string& name) {
  const std::size_t s = write_shard_of(name);
  if (reshard_ != nullptr) {
    reshard_->ensure_announced(s);
    // An acquire routed to the old owner may have left its local
    // bookkeeping there; the release must retire THAT request's entry.
    reshard_->pull_local_requests(name, s);
  }
  shards_[s]->release(name);
}

bool ShardedLockManager::held_by_me(const std::string& name) const {
  auto o = owner(name);
  return o && *o == plane_.channels(0).self();
}

std::optional<NodeId> ShardedLockManager::owner(const std::string& name) const {
  const auto rr = plane_.vrouter().route_read(name);
  auto o = shards_[rr.primary]->owner(name);
  if (!o && rr.fallback) o = shards_[*rr.fallback]->owner(name);
  return o;
}

std::size_t ShardedLockManager::waiters(const std::string& name) const {
  const auto rr = plane_.vrouter().route_read(name);
  const std::size_t n = shards_[rr.primary]->waiters(name);
  if (n == 0 && rr.fallback && !shards_[rr.primary]->owner(name)) {
    return shards_[*rr.fallback]->waiters(name);
  }
  return n;
}

}  // namespace raincore::data
