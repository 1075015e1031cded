#include "apps/vip/vip_manager.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace raincore::apps {

namespace {
constexpr const char* kMod = "vip";
/// Periodic ARP re-assertion: each owner re-checks the subnet cache and
/// re-sends a gratuitous ARP for any of its VIPs the cache no longer
/// resolves to it (e.g. a partitioned rival claimed it, or the original
/// announcement was sent while this node was cut off).
constexpr Time kArpReassertInterval = millis(200);
}

VipManager::VipManager(data::ChannelMux& mux, Subnet& subnet, VipConfig cfg)
    : mux_(mux), subnet_(subnet), cfg_(std::move(cfg)),
      assignments_(mux, cfg_.channel) {
  assignments_.set_change_handler(
      [this](const std::string& key, const std::optional<std::string>&, NodeId) {
        inflight_writes_.erase(key);
        on_assignment_change();
      });
  mux_.subscribe_views([this](const session::View& v) { on_view(v); });
  schedule_reassert();
}

VipManager::~VipManager() {
  if (reassert_timer_) mux_.session().env().cancel(reassert_timer_);
}

void VipManager::schedule_reassert() {
  reassert_timer_ = mux_.session().env().schedule(kArpReassertInterval, [this] {
    reassert_arps();
    schedule_reassert();
  });
}

void VipManager::reassert_arps() {
  // Self-healing against lost or overwritten ARP announcements: a gratuitous
  // ARP sent while this node was cut off never refreshed the caches, and a
  // briefly partitioned rival may have claimed our VIP on the shared
  // segment. Only re-announce when the cache is actually wrong, so the
  // steady state stays ARP-silent.
  // A crash-stopped node sends nothing — its stale `mine_` set must not
  // fight the survivors that took its VIPs over.
  if (!mux_.session().started()) return;
  if (!mux_.view().has(mux_.self())) return;
  for (const std::string& vip : mine_) {
    auto cached = subnet_.resolve(vip);
    if (cached && *cached == mux_.self()) continue;
    stats_.arp_reasserts.inc();
    subnet_.gratuitous_arp(vip, mux_.self());
    RC_INFO(kMod, "node %u re-asserted ARP for %s", mux_.self(), vip.c_str());
  }
}

std::vector<std::string> VipManager::my_vips() const {
  return {mine_.begin(), mine_.end()};
}

std::optional<NodeId> VipManager::owner_of(const std::string& vip) const {
  auto v = assignments_.get(vip);
  if (!v) return std::nullopt;
  return static_cast<NodeId>(std::stoul(*v));
}

void VipManager::move(const std::string& vip, NodeId target) {
  assignments_.put(vip, std::to_string(target));
}

bool VipManager::is_rebalancer() const {
  const auto& members = mux_.view().members;
  if (members.empty() || !mux_.view().has(mux_.self())) return false;
  return *std::min_element(members.begin(), members.end()) == mux_.self();
}

bool VipManager::grossly_unbalanced() const {
  std::map<NodeId, int> load;
  for (NodeId n : mux_.view().members) load[n] = 0;
  for (const std::string& vip : cfg_.pool) {
    auto owner = owner_of(vip);
    if (!owner || load.count(*owner) == 0) return true;  // orphan
    load[*owner]++;
  }
  auto [mn, mx] = std::minmax_element(
      load.begin(), load.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return mx->second - mn->second > 1;
}

void VipManager::on_view(const session::View& v) {
  if (mux_.session().generation() != generation_) {
    // Crash-restart: this incarnation serves nothing yet. (assignments_
    // resets itself through its own generation hook.)
    generation_ = mux_.session().generation();
    mine_.clear();
    inflight_writes_.clear();
    rebalance_pending_ = false;
    needs_rebalance_ = false;
  }
  if (!v.has(mux_.self())) return;
  // A membership change opens a rebalancing window: orphaned VIPs are
  // adopted and the spread is evened out. The window closes once the pool
  // is balanced, so manual move() decisions made in steady state are not
  // fought by the rebalancer.
  needs_rebalance_ = true;
  maybe_schedule_rebalance();
}

void VipManager::maybe_schedule_rebalance() {
  // The lowest-id member is the rebalancer; it mutates the assignment map
  // inside a run_exclusive section (the token master-lock, §2.7), so no two
  // nodes ever compute conflicting assignments. Because assignment reads
  // are stale until the written ops circulate, at most one rebalance is in
  // flight at a time; on_assignment_change() re-checks once they land.
  if (rebalance_pending_ || !is_rebalancer()) return;
  if (!inflight_writes_.empty()) return;  // wait for our writes to land
  rebalance_pending_ = true;
  mux_.session().run_exclusive([this] {
    rebalance_pending_ = false;
    if (!inflight_writes_.empty()) return;
    rebalance(mux_.view());
  });
}

void VipManager::rebalance(const session::View& v) {
  if (!v.has(mux_.self())) return;  // view changed before the lock fired
  stats_.rebalances.inc();
  std::map<NodeId, int> load;
  for (NodeId n : v.members) load[n] = 0;

  // Keep valid assignments; collect orphaned VIPs.
  std::vector<std::string> orphans;
  for (const std::string& vip : cfg_.pool) {
    auto owner = owner_of(vip);
    if (owner && load.count(*owner) > 0) {
      load[*owner]++;
    } else {
      orphans.push_back(vip);
    }
  }
  // Give each orphan to the least-loaded member (stable: lowest id wins
  // ties), mirroring §3.1's prompt fail-over of a failed node's VIPs.
  std::set<std::string> touched;  // map reads are stale until ops circulate
  for (const std::string& vip : orphans) touched.insert(vip);
  for (const std::string& vip : orphans) {
    NodeId best = kInvalidNode;
    int best_load = INT32_MAX;
    for (auto& [n, l] : load) {
      if (l < best_load) {
        best = n;
        best_load = l;
      }
    }
    load[best]++;
    inflight_writes_.insert(vip);
    move(vip, best);
  }
  // Even out gross imbalance (more than one VIP difference) by moving
  // surplus VIPs — the paper's "moved for load balancing or other reasons".
  bool moved = true;
  while (moved) {
    moved = false;
    auto [mn, mx] = std::minmax_element(
        load.begin(), load.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (mx->second - mn->second <= 1) break;
    for (const std::string& vip : cfg_.pool) {
      if (touched.count(vip) > 0) continue;
      auto owner = owner_of(vip);
      if (owner && *owner == mx->first) {
        touched.insert(vip);
        inflight_writes_.insert(vip);
        move(vip, mn->first);
        mx->second--;
        mn->second++;
        moved = true;
        break;
      }
    }
  }
}

void VipManager::on_assignment_change() {
  std::set<std::string> now;
  for (const std::string& vip : cfg_.pool) {
    auto owner = owner_of(vip);
    if (owner && *owner == mux_.self()) now.insert(vip);
  }
  for (const std::string& vip : now) {
    if (mine_.count(vip) == 0) {
      stats_.gains.inc();
      subnet_.gratuitous_arp(vip, mux_.self());
      RC_INFO(kMod, "node %u now serves %s (gratuitous ARP sent)", mux_.self(),
              vip.c_str());
      if (on_gain_) on_gain_(vip);
    }
  }
  for (const std::string& vip : mine_) {
    if (now.count(vip) == 0) {
      stats_.losses.inc();
      if (on_loss_) on_loss_(vip);
    }
  }
  mine_ = std::move(now);
  owned_gauge_.set(static_cast<double>(mine_.size()));

  // The in-flight rebalance ops have (at least partially) landed: if the
  // spread is still uneven — e.g. the last pass ran on stale reads — run
  // another pass with the settled data. The window closes once balanced.
  if (needs_rebalance_ && is_rebalancer()) {
    if (grossly_unbalanced()) {
      maybe_schedule_rebalance();
    } else {
      needs_rebalance_ = false;
    }
  }
}

}  // namespace raincore::apps
