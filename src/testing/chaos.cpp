#include "testing/chaos.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"
#include "testing/cluster.h"

namespace raincore::testing {

namespace {
constexpr const char* kMod = "chaos";

constexpr data::Channel kAppChannel = 1;
constexpr data::Channel kLockChannel = 2;
constexpr data::Channel kMapChannel = 3;
constexpr data::Channel kVipChannel = 4;

}  // namespace

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kCrashRestart: return "crash-restart";
    case FaultClass::kPartition: return "partition";
    case FaultClass::kLinkCut: return "link-cut";
    case FaultClass::kDropBurst: return "drop-burst";
    case FaultClass::kLatencyStorm: return "latency-storm";
    case FaultClass::kDuplicateBurst: return "duplicate-burst";
    case FaultClass::kCorruptBurst: return "corrupt-burst";
    case FaultClass::kReorderWindow: return "reorder-window";
    case FaultClass::kRttInflate: return "rtt-inflate";
    case FaultClass::kAsymLoss: return "asym-loss";
    case FaultClass::kLinkFlap: return "link-flap";
    case FaultClass::kShardRestart: return "shard-restart";
    case FaultClass::kClusterRestart: return "cluster-restart";
    case FaultClass::kCount: break;
  }
  return "?";
}

std::string FaultEvent::describe() const {
  char buf[160];
  if (shard != static_cast<std::size_t>(-1)) {
    std::snprintf(buf, sizeof(buf), "  t=%9.3fms %-15s shard=%lu dur=%.1fms",
                  to_millis(at), fault_class_name(cls),
                  static_cast<unsigned long>(shard), to_millis(duration));
  } else if (b != kInvalidNode) {
    std::snprintf(buf, sizeof(buf),
                  "  t=%9.3fms %-15s a=%u b=%u rate=%.2f dur=%.1fms",
                  to_millis(at), fault_class_name(cls), a, b, rate,
                  to_millis(duration));
  } else if (a != kInvalidNode) {
    std::snprintf(buf, sizeof(buf), "  t=%9.3fms %-15s node=%u dur=%.1fms",
                  to_millis(at), fault_class_name(cls), a, to_millis(duration));
  } else {
    std::snprintf(buf, sizeof(buf), "  t=%9.3fms %-15s dur=%.1fms",
                  to_millis(at), fault_class_name(cls), to_millis(duration));
  }
  return buf;
}

// --- ChaosEngine -----------------------------------------------------------

ChaosEngine::ChaosEngine(net::SimNetwork& net, std::vector<NodeId> ids,
                         ChaosConfig cfg)
    : net_(net), ids_(std::move(ids)), cfg_(cfg), rng_(cfg.seed) {}

ChaosEngine::~ChaosEngine() {
  if (next_timer_) net_.loop().cancel(next_timer_);
  for (auto& [id, r] : reverts_) net_.loop().cancel(r.timer);
}

void ChaosEngine::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void ChaosEngine::schedule_next() {
  if (!running_) return;
  Time gap = std::max<Time>(
      millis(1), static_cast<Time>(rng_.exponential(
                     static_cast<double>(cfg_.mean_gap))));
  next_timer_ = net_.loop().schedule(gap, [this] {
    next_timer_ = 0;
    if (!running_) return;
    inject_one();
    schedule_next();
  });
}

FaultClass ChaosEngine::pick_class() {
  double total = 0.0;
  for (double w : cfg_.weights) total += w;
  double x = rng_.next_double() * total;
  for (std::size_t i = 0; i < static_cast<std::size_t>(FaultClass::kCount);
       ++i) {
    x -= cfg_.weights[i];
    if (x < 0.0) return static_cast<FaultClass>(i);
  }
  return FaultClass::kLinkCut;
}

std::vector<NodeId> ChaosEngine::alive() const {
  std::vector<NodeId> out;
  for (NodeId id : ids_) {
    if (down_.count(id) == 0) out.push_back(id);
  }
  return out;
}

NodeId ChaosEngine::pick_alive() {
  std::vector<NodeId> a = alive();
  if (a.empty()) return kInvalidNode;
  return a[rng_.next_below(a.size())];
}

std::pair<NodeId, NodeId> ChaosEngine::pick_pair() {
  std::vector<NodeId> a = alive();
  if (a.size() < 2) return {kInvalidNode, kInvalidNode};
  std::size_t i = rng_.next_below(a.size());
  std::size_t j = rng_.next_below(a.size() - 1);
  if (j >= i) ++j;
  return {a[i], a[j]};
}

void ChaosEngine::add_revert(Time after, std::function<void()> fn) {
  std::uint64_t rid = next_revert_id_++;
  Revert r;
  r.fn = std::move(fn);
  r.timer = net_.loop().schedule(after, [this, rid] {
    auto it = reverts_.find(rid);
    if (it == reverts_.end()) return;
    auto revert = std::move(it->second.fn);
    reverts_.erase(it);
    revert();
  });
  reverts_.emplace(rid, std::move(r));
}

void ChaosEngine::crash(NodeId id, Time duration) {
  down_.insert(id);
  if (on_crash_) on_crash_(id);
  net_.set_node_up(id, false);
  RC_INFO(kMod, "crash node %u for %.1fms", id, to_millis(duration));
  add_revert(duration, [this, id] { restart(id); });
}

void ChaosEngine::restart(NodeId id) {
  if (down_.count(id) == 0) return;
  down_.erase(id);
  net_.set_node_up(id, true);
  // Partition groups are built over the full node set, so a node restarting
  // into an active partition stays on its original side of the split.
  RC_INFO(kMod, "restart node %u", id);
  if (on_restart_) on_restart_(id);
}

void ChaosEngine::restart_shard(std::size_t shard) {
  if (shards_down_.count(shard) == 0) return;
  shards_down_.erase(shard);
  RC_INFO(kMod, "restart shard %lu", static_cast<unsigned long>(shard));
  if (on_shard_restart_) on_shard_restart_(shard);
}

bool ChaosEngine::inject_crash(NodeId id, Time duration) {
  if (down_.count(id)) return false;
  FaultEvent ev;
  ev.at = net_.now();
  ev.cls = FaultClass::kCrashRestart;
  ev.a = id;
  ev.duration = duration;
  crash(id, duration);
  schedule_.push_back(ev);
  return true;
}

bool ChaosEngine::inject_partition(std::vector<NodeId> group_a, Time duration) {
  if (!partition_groups_.empty() || group_a.empty()) return false;
  std::vector<NodeId> group_b;
  for (NodeId id : ids_) {
    if (std::find(group_a.begin(), group_a.end(), id) == group_a.end()) {
      group_b.push_back(id);
    }
  }
  if (group_b.empty()) return false;
  partition_groups_ = {std::move(group_a), std::move(group_b)};
  net_.partition(partition_groups_);
  FaultEvent ev;
  ev.at = net_.now();
  ev.cls = FaultClass::kPartition;
  ev.a = partition_groups_[0].front();
  ev.b = partition_groups_[1].front();
  ev.duration = duration;
  add_revert(duration, [this] {
    partition_groups_.clear();
    net_.heal_partition();
  });
  schedule_.push_back(ev);
  return true;
}

void ChaosEngine::inject_one() {
  FaultClass cls = pick_class();
  Time duration = std::max<Time>(
      millis(20), static_cast<Time>(rng_.exponential(
                      static_cast<double>(cfg_.mean_duration))));
  FaultEvent ev;
  ev.at = net_.now();
  ev.cls = cls;
  ev.duration = duration;
  bool injected = false;

  switch (cls) {
    case FaultClass::kCrashRestart: {
      if (ids_.size() - down_.size() > cfg_.min_alive) {
        NodeId id = pick_alive();
        if (id != kInvalidNode) {
          ev.a = id;
          crash(id, duration);
          injected = true;
        }
      }
      break;
    }
    case FaultClass::kPartition: {
      if (!partition_groups_.empty() || ids_.size() < 2) break;
      std::vector<NodeId> shuffled = ids_;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng_.next_below(i)]);
      }
      std::size_t cut =
          1 + static_cast<std::size_t>(rng_.next_below(shuffled.size() - 1));
      partition_groups_ = {
          std::vector<NodeId>(shuffled.begin(), shuffled.begin() + cut),
          std::vector<NodeId>(shuffled.begin() + cut, shuffled.end())};
      net_.partition(partition_groups_);
      ev.a = partition_groups_[0].front();
      ev.b = partition_groups_[1].front();
      add_revert(duration, [this] {
        partition_groups_.clear();
        net_.heal_partition();
      });
      injected = true;
      break;
    }
    case FaultClass::kLinkCut: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      net_.set_link_up(a, b, false);
      add_revert(duration, [this, a = a, b = b] { net_.set_link_up(a, b, true); });
      injected = true;
      break;
    }
    case FaultClass::kDropBurst: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.2 + 0.7 * rng_.next_double();
      net_.set_drop_rate(a, b, ev.rate);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_drop_rate(a, b, net_.config().default_drop);
      });
      injected = true;
      break;
    }
    case FaultClass::kLatencyStorm: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      Time lat = millis(1) + static_cast<Time>(rng_.next_below(millis(8)));
      Time jit = static_cast<Time>(rng_.next_below(millis(4)));
      net_.set_latency(a, b, lat, jit);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_latency(a, b, net_.config().default_latency,
                         net_.config().default_jitter);
      });
      injected = true;
      break;
    }
    case FaultClass::kDuplicateBurst: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.1 + 0.4 * rng_.next_double();
      net_.set_duplicate_rate(a, b, ev.rate);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_duplicate_rate(a, b, net_.config().default_duplicate);
      });
      injected = true;
      break;
    }
    case FaultClass::kCorruptBurst: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.05 + 0.25 * rng_.next_double();
      net_.set_corrupt_rate(a, b, ev.rate);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_corrupt_rate(a, b, net_.config().default_corrupt);
      });
      injected = true;
      break;
    }
    case FaultClass::kReorderWindow: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      // Reordering only bites with jitter, so the window also injects some.
      net_.set_preserve_order(a, b, false);
      net_.set_latency(a, b, net_.config().default_latency, millis(2));
      add_revert(duration, [this, a = a, b = b] {
        net_.set_preserve_order(a, b, net_.config().preserve_order);
        net_.set_latency(a, b, net_.config().default_latency,
                         net_.config().default_jitter);
      });
      injected = true;
      break;
    }
    case FaultClass::kRttInflate: {
      // Sustained congestion, not a blip: one-way latency inflates by a
      // multi-x factor for the whole fault. A fixed-RTO detector keeps
      // timing out and removing the (alive, just slow) peer; the adaptive
      // estimator should track the inflation instead.
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      Time lat = net_.config().default_latency *
                 static_cast<Time>(3 + rng_.next_below(10));
      net_.set_latency(a, b, lat, lat / 4);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_latency(a, b, net_.config().default_latency,
                         net_.config().default_jitter);
      });
      injected = true;
      break;
    }
    case FaultClass::kAsymLoss: {
      // Heavy loss in one direction only (a -> b); the reverse path stays
      // clean. Acks keep arriving for traffic b -> a, so naive detectors
      // that key liveness on "have I heard anything" are stressed by the
      // asymmetry.
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.3 + 0.6 * rng_.next_double();
      net_.set_drop_rate(a, b, ev.rate, /*bidirectional=*/false);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_drop_rate(a, b, net_.config().default_drop,
                           /*bidirectional=*/false);
      });
      injected = true;
      break;
    }
    case FaultClass::kLinkFlap: {
      // The link toggles up/down on a short period — alive long enough to
      // ack sometimes, dead long enough to time out sometimes. This is the
      // probation step's target scenario.
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      Time period = millis(2) + static_cast<Time>(rng_.next_below(millis(10)));
      ev.rate = to_millis(period);  // record the flap period for the schedule
      flap_link(a, b, /*down=*/true, period, net_.now() + duration);
      injected = true;
      break;
    }
    case FaultClass::kShardRestart: {
      // One shard dies CLUSTER-WIDE: the harness crash-stops that shard's
      // store and ring on every live node (power-cut model: unsynced WAL
      // tail lost), then the restart hook recovers each from disk and
      // re-founds the ring. Other shards keep serving throughout — the
      // scenario the per-shard durability split exists for.
      if (n_shards_ == 0 || !on_shard_crash_ || !on_shard_restart_) break;
      std::vector<std::size_t> up_shards;
      for (std::size_t s = 0; s < n_shards_; ++s) {
        if (shards_down_.count(s) == 0) up_shards.push_back(s);
      }
      if (up_shards.empty()) break;
      const std::size_t s = up_shards[rng_.next_below(up_shards.size())];
      shards_down_.insert(s);
      ev.shard = s;
      RC_INFO(kMod, "crash shard %lu for %.1fms",
              static_cast<unsigned long>(s), to_millis(duration));
      on_shard_crash_(s);
      add_revert(duration, [this, s] { restart_shard(s); });
      injected = true;
      break;
    }
    case FaultClass::kClusterRestart: {
      // Total blackout: every node crash-stops (losing its unsynced WAL
      // tails), then the whole cluster restarts together and must rebuild
      // its state from disk alone — there is no surviving replica to sync
      // from. Skipped while any node is individually down so the single
      // revert cleanly owns the whole restart.
      if (!on_crash_ || !on_restart_) break;
      if (!down_.empty() || !shards_down_.empty()) break;
      for (NodeId id : ids_) {
        down_.insert(id);
        on_crash_(id);
        net_.set_node_up(id, false);
      }
      RC_INFO(kMod, "cluster restart: all %lu nodes down for %.1fms",
              static_cast<unsigned long>(ids_.size()), to_millis(duration));
      add_revert(duration, [this] {
        const std::set<NodeId> d = down_;
        for (NodeId id : d) restart(id);
      });
      injected = true;
      break;
    }
    case FaultClass::kCount:
      break;
  }

  if (injected) schedule_.push_back(ev);
}

void ChaosEngine::flap_link(NodeId a, NodeId b, bool down, Time period,
                            Time until) {
  // Invoked both by its own revert timer and by stop_and_heal's pending-fn
  // sweep: once the engine stops (or the fault expires) the link must end
  // in the up state.
  if (!running_ || net_.now() >= until) {
    net_.set_link_up(a, b, true);
    return;
  }
  net_.set_link_up(a, b, !down);
  add_revert(period, [this, a, b, down, period, until] {
    flap_link(a, b, !down, period, until);
  });
}

void ChaosEngine::stop_and_heal() {
  running_ = false;
  if (next_timer_) {
    net_.loop().cancel(next_timer_);
    next_timer_ = 0;
  }
  // Revert everything still active, in injection order.
  auto reverts = std::move(reverts_);
  reverts_.clear();
  for (auto& [id, r] : reverts) {
    net_.loop().cancel(r.timer);
    r.fn();
  }
  partition_groups_.clear();
  net_.heal_partition();
  std::set<NodeId> still_down = down_;
  for (NodeId id : still_down) restart(id);
  std::set<std::size_t> shards_still_down = shards_down_;
  for (std::size_t s : shards_still_down) restart_shard(s);
  // Belt and braces: no link overrides survive a heal.
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    for (std::size_t j = i + 1; j < ids_.size(); ++j) {
      net_.clear_link_overrides(ids_[i], ids_[j]);
    }
  }
}

std::set<FaultClass> ChaosEngine::classes_seen() const {
  std::set<FaultClass> out;
  for (const FaultEvent& ev : schedule_) out.insert(ev.cls);
  return out;
}

std::string ChaosEngine::describe_schedule() const {
  std::string out = "chaos seed=" + std::to_string(cfg_.seed) + ", " +
                    std::to_string(schedule_.size()) + " faults\n";
  for (const FaultEvent& ev : schedule_) {
    out += ev.describe();
    out += '\n';
  }
  return out;
}

// --- ChaosCluster ----------------------------------------------------------

ChaosCluster::ChaosCluster(std::vector<NodeId> ids, ChaosConfig chaos_cfg,
                           session::SessionConfig session_cfg,
                           net::SimNetConfig net_cfg,
                           transport::TransportConfig tcfg)
    : c_(std::make_unique<Cluster>(std::move(ids), std::move(session_cfg),
                                   net_cfg, tcfg)),
      engine_(c_->enable_chaos(chaos_cfg)) {
  // The public side: ARPs from a disconnected node never reach the segment.
  subnet_.set_reachability([this](NodeId n) { return net().node_up(n); });
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < c_->ids().size() + 2; ++i) {
    pool.push_back("10.1.0." + std::to_string(i + 1));
  }
  Rng setup_rng(chaos_cfg.seed ^ 0x5bd1e995u);
  for (NodeId id : c_->ids()) {
    session::SessionNode& ring = c_->node(id);
    Stack& st = stacks_[id];
    st.mux = std::make_unique<data::ChannelMux>(ring);
    st.map = std::make_unique<data::ReplicatedMap>(*st.mux, kMapChannel);
    st.locks = std::make_unique<data::LockManager>(*st.mux, kLockChannel);
    apps::VipConfig vcfg;
    vcfg.pool = pool;
    vcfg.channel = kVipChannel;
    st.vips = std::make_unique<apps::VipManager>(*st.mux, subnet_, vcfg);
    st.traffic_rng = setup_rng.fork();
    st.mux->subscribe(kAppChannel, [this, id](NodeId origin,
                                              const Slice& payload,
                                              session::Ordering) {
      record_delivery(id, origin, payload);
    });
    ring.set_removal_handler(
        [this, id](NodeId removed) { on_removal_observed(id, removed); });
  }
  engine_.set_crash_hook([this](NodeId id) {
    c_->crash(id);
    Stack& st = stacks_.at(id);
    st.crashed_at = net().now();
    st.detection_recorded = false;
  });
  engine_.set_restart_hook([this](NodeId id) {
    Stack& st = stacks_.at(id);
    st.traffic_counter = 0;  // a new incarnation counts from zero
    st.crashed_at = -1;
    st.restarted_at = net().now();
    c_->restart(id);  // discovery (BODYODOR) merges it back in
  });
}

ChaosCluster::~ChaosCluster() {
  traffic_on_ = false;
  for (auto& [id, st] : stacks_) {
    if (st.traffic_timer) net().loop().cancel(st.traffic_timer);
  }
}

net::SimNetwork& ChaosCluster::net() { return c_->net(); }

session::SessionNode& ChaosCluster::session(NodeId id) { return c_->node(id); }

bool ChaosCluster::bootstrap(Time timeout) {
  c_->found_all();
  if (run_until(net().loop(), timeout,
                [this] { return c_->converged(c_->ids()); })) {
    return true;
  }
  violation("bootstrap: cluster never converged");
  return false;
}

void ChaosCluster::start_traffic(NodeId id) {
  Stack& stack = stacks_.at(id);
  Time gap = millis(8) + static_cast<Time>(
                             stack.traffic_rng.next_below(millis(8)));
  stack.traffic_timer = net().loop().schedule(gap, [this, id] {
    Stack& st = stacks_.at(id);
    st.traffic_timer = 0;
    if (!traffic_on_) return;
    const session::SessionNode& ring = c_->node(id);
    if (ring.started() && ring.view().has(id)) {
      std::string payload = "c:" + std::to_string(id) + ":" +
                            std::to_string(c_->epoch(id)) + ":" +
                            std::to_string(st.traffic_counter++);
      st.mux->send(kAppChannel, Bytes(payload.begin(), payload.end()));
    }
    start_traffic(id);
  });
}

void ChaosCluster::record_delivery(NodeId receiver, NodeId origin,
                                   const Slice& payload) {
  stacks_.at(receiver).log.push_back(
      {c_->epoch(receiver), origin,
       std::string(payload.begin(), payload.end())});
}

void ChaosCluster::on_removal_observed(NodeId remover, NodeId removed) {
  (void)remover;
  auto it = stacks_.find(removed);
  if (it == stacks_.end()) return;
  Stack& target = it->second;
  if (c_->node(removed).started()) {
    // A removal landing just after the node's chaos restart was decided
    // while the node was genuinely down — a correct (if stale) detection
    // that raced the rejoin, not a detector error. The grace window covers
    // the worst-case detection bound plus removal propagation.
    constexpr Time kRestartGrace = millis(500);
    if (target.restarted_at >= 0 &&
        net().now() - target.restarted_at <= kRestartGrace) {
      true_removals_.inc();
      return;
    }
    // Ground truth says the removed node's process is alive: the detector
    // misclassified packet loss / congestion as a crash.
    false_removals_.inc();
    return;
  }
  true_removals_.inc();
  if (target.crashed_at >= 0 && !target.detection_recorded) {
    target.detection_recorded = true;
    detection_latency_.record_time(net().now() - target.crashed_at);
  }
}

void ChaosCluster::run_chaos(Time duration) {
  traffic_on_ = true;
  for (NodeId id : c_->ids()) start_traffic(id);
  engine_.start();
  run_checking_tokens(net().loop(), duration, c_->rings(), sink());
}

void ChaosCluster::violation(std::string what) {
  RC_WARN(kMod, "INVARIANT VIOLATION: %s", what.c_str());
  violations_.push_back(std::move(what));
}

LogFn ChaosCluster::log_of() const {
  return [this](NodeId id, std::size_t) -> const std::vector<Delivered>& {
    return stacks_.at(id).log;
  };
}

metrics::Snapshot ChaosCluster::metrics_snapshot() const {
  metrics::Snapshot merged = c_->metrics_snapshot();
  for (const auto& [id, st] : stacks_) {
    merged.merge(st.mux->metrics().snapshot());
    merged.merge(st.map->metrics().snapshot());
    merged.merge(st.locks->metrics().snapshot());
    merged.merge(st.vips->metrics().snapshot());
  }
  merged.merge(harness_metrics_.snapshot());
  return merged;
}

std::string ChaosCluster::ring_dump() const { return c_->ring_dump(); }

std::string ChaosCluster::failure_report() const {
  std::string out = "=== chaos failure report ===\n";
  out += "violations (" + std::to_string(violations_.size()) + "):\n";
  for (const std::string& v : violations_) out += "  " + v + "\n";
  out += engine_.describe_schedule();
  out += ring_dump();
  out += "final metrics snapshot:\n";
  out += metrics_snapshot().to_table();
  return out;
}

void ChaosCluster::check_lock_service(const std::vector<NodeId>& live) {
  // Post-heal mutual exclusion on a fresh lock: every live node requests
  // it, each must be granted exactly once, and no two grants may overlap.
  // The depth counter is bumped when a grant fires and dropped just before
  // the owner initiates its release, so any overlap trips depth > 1.
  struct Probe {
    int depth = 0;
    std::map<NodeId, int> grants;
  };
  auto probe = std::make_shared<Probe>();
  const std::string lock = "chaos-final";
  for (NodeId id : live) {
    stacks_.at(id).locks->acquire(lock, [this, probe, id](const std::string&) {
      ++probe->depth;
      if (probe->depth != 1) {
        violation("lock exclusion: node " + std::to_string(id) +
                  " granted while another node still holds the lock");
      }
      ++probe->grants[id];
      net().loop().schedule(millis(2), [this, probe, id] {
        --probe->depth;
        stacks_.at(id).locks->release("chaos-final");
      });
    });
  }
  run_until(net().loop(), millis(5000), [&] {
    for (NodeId id : live) {
      if (probe->grants[id] != 1) return false;
    }
    return true;
  });
  for (NodeId id : live) {
    if (probe->grants[id] != 1) {
      violation("lock service: node " + std::to_string(id) + " granted " +
                std::to_string(probe->grants[id]) + " times (want 1)");
    }
  }
  // Let the last release circulate, then every replica must agree: no owner.
  net().loop().run_for(millis(500));
  for (NodeId id : live) {
    auto owner = stacks_.at(id).locks->owner(lock);
    if (owner) {
      violation("lock service: node " + std::to_string(id) +
                " still sees owner " + std::to_string(*owner) +
                " after all releases");
    }
  }
}

void ChaosCluster::check_map_convergence(const std::vector<NodeId>& live) {
  for (NodeId id : live) {
    stacks_.at(id).map->put("final-" + std::to_string(id),
                            std::to_string(id));
  }
  run_until(net().loop(), millis(5000), [&] {
    const auto& ref = stacks_.at(live.front()).map->contents();
    for (NodeId id : live) {
      const auto& m = *stacks_.at(id).map;
      if (!m.synced() || m.contents() != ref) return false;
      if (!m.contains("final-" + std::to_string(id))) return false;
    }
    return true;
  });
  const auto& ref = stacks_.at(live.front()).map->contents();
  for (NodeId id : live) {
    const auto& m = *stacks_.at(id).map;
    if (!m.synced()) {
      violation("replicated map: node " + std::to_string(id) + " never synced");
      continue;
    }
    if (m.contents() != ref) {
      violation("replicated map: node " + std::to_string(id) + " holds " +
                std::to_string(m.size()) + " entries, node " +
                std::to_string(live.front()) + " holds " +
                std::to_string(ref.size()) + " — replicas diverged");
    }
    if (!m.contains("final-" + std::to_string(id))) {
      violation("replicated map: post-heal put from node " +
                std::to_string(id) + " was lost");
    }
  }
}

void ChaosCluster::check_vip_coverage(const std::vector<NodeId>& live) {
  const auto& pool = stacks_.at(live.front()).vips->pool();
  std::set<NodeId> live_set(live.begin(), live.end());
  auto covered = [&] {
    for (const std::string& vip : pool) {
      auto owner = stacks_.at(live.front()).vips->owner_of(vip);
      if (!owner || live_set.count(*owner) == 0) return false;
      for (NodeId id : live) {
        if (stacks_.at(id).vips->owner_of(vip) != owner) return false;
      }
      if (subnet_.resolve(vip) != owner) return false;
    }
    return true;
  };
  run_until(net().loop(), millis(5000), covered, millis(20));
  if (log_enabled(LogLevel::kDebug)) {
    for (const std::string& vip : pool) {
      std::string line = vip + ":";
      for (NodeId id : live) {
        auto o = stacks_.at(id).vips->owner_of(vip);
        line += " n" + std::to_string(id) + "->" +
                (o ? std::to_string(*o) : std::string("-"));
      }
      auto res = subnet_.resolve(vip);
      line += " subnet->" + (res ? std::to_string(*res) : std::string("-"));
      RC_DEBUG(kMod, "%s", line.c_str());
    }
  }
  for (const std::string& vip : pool) {
    auto owner = stacks_.at(live.front()).vips->owner_of(vip);
    if (!owner || live_set.count(*owner) == 0) {
      violation("vip coverage: " + vip + " has no live owner");
      continue;
    }
    for (NodeId id : live) {
      auto o = stacks_.at(id).vips->owner_of(vip);
      if (o != owner) {
        violation("vip coverage: node " + std::to_string(id) +
                  " disagrees on the owner of " + vip);
      }
    }
    auto resolved = subnet_.resolve(vip);
    if (resolved != owner) {
      violation("vip coverage: subnet resolves " + vip + " to " +
                (resolved ? std::to_string(*resolved) : "nobody") +
                " but the assignment says " + std::to_string(*owner));
    }
  }
}

void ChaosCluster::heal_and_check(Time converge_timeout) {
  engine_.stop_and_heal();
  const std::vector<NodeId>& live = c_->ids();  // everybody is back up
  const RingTable rings = c_->rings();
  settle_and_check_rings(net().loop(), rings, live, converge_timeout,
                         c_->node(live.front()).config().token_hold,
                         [this] { traffic_on_ = false; }, log_of(), sink());
  FinalBatch batch;
  batch.per_node = 5;
  batch.timeout = millis(3000);
  batch.send = [this](NodeId id, std::size_t, const std::string& p) {
    stacks_.at(id).mux->send(kAppChannel, Bytes(p.begin(), p.end()));
  };
  check_final_batch(net().loop(), rings, live, batch, log_of(), sink());
  check_lock_service(live);
  check_map_convergence(live);
  check_vip_coverage(live);
}

// --- round runner ----------------------------------------------------------

namespace {

/// A chaos round's configuration, all derived from its seed.
struct RoundSetup {
  std::vector<NodeId> ids;
  ChaosConfig chaos;
  session::SessionConfig session;
  net::SimNetConfig net;
  transport::TransportConfig transport;
};

/// `net_salt` gives each harness its own network stream for one seed.
RoundSetup round_setup(std::uint64_t seed, std::size_t n_nodes,
                       const ChaosProfile& profile, std::uint64_t net_salt) {
  RoundSetup out;
  out.ids = node_ids(n_nodes);
  out.chaos.seed = seed;
  out.net.seed = seed ^ net_salt;
  out.net.default_drop = profile.base_loss;
  out.transport.adaptive = profile.adaptive;
  if (profile.max_batch_msgs > 0) {
    out.session.max_batch_msgs = profile.max_batch_msgs;
  }
  if (profile.max_batch_bytes > 0) {
    out.session.max_batch_bytes = profile.max_batch_bytes;
  }
  return out;
}

/// Bootstrap → chaos + traffic → heal → invariant checks, then the outcome.
template <class Cluster>
ChaosRoundResult run_round(Cluster& cluster, Time chaos_duration) {
  if (cluster.bootstrap()) {
    cluster.run_chaos(chaos_duration);
    cluster.heal_and_check();
  }
  ChaosRoundResult res;
  res.violations = cluster.violations();
  res.schedule = cluster.engine().describe_schedule();
  res.faults = cluster.engine().faults_injected();
  res.classes = cluster.engine().classes_seen();
  res.metrics = cluster.metrics_snapshot();
  if (!res.violations.empty()) res.report = cluster.failure_report();
  return res;
}

}  // namespace

ChaosRoundResult run_chaos_round(std::uint64_t seed, Time chaos_duration,
                                 std::size_t n_nodes, ChaosProfile profile) {
  RoundSetup setup = round_setup(seed, n_nodes, profile, 0x9e3779b97f4a7c15ULL);
  ChaosCluster cluster(setup.ids, setup.chaos, setup.session, setup.net,
                       setup.transport);
  ChaosRoundResult res = run_round(cluster, chaos_duration);
  res.false_removals = cluster.false_removals();
  res.true_removals = cluster.true_removals();
  return res;
}

// --- MultiRingChaosCluster -------------------------------------------------

MultiRingChaosCluster::MultiRingChaosCluster(std::vector<NodeId> ids,
                                             std::size_t n_rings,
                                             ChaosConfig chaos_cfg,
                                             session::SessionConfig session_cfg,
                                             net::SimNetConfig net_cfg,
                                             transport::TransportConfig tcfg)
    : c_(std::make_unique<Cluster>(
          std::move(ids), Cluster::Rings(n_rings, std::move(session_cfg)),
          net_cfg, tcfg)),
      engine_(c_->enable_chaos(chaos_cfg)),
      n_rings_(n_rings) {
  Rng setup_rng(chaos_cfg.seed ^ 0x7f4a7c15u);
  for (NodeId id : c_->ids()) {
    Stack& st = stacks_[id];
    st.counters.assign(n_rings_, 0);
    st.traffic_rng = setup_rng.fork();
  }
  // The Cluster's crash is node-level: every ring AND the shared transport
  // go down — a stopped ring over a live transport would keep acking token
  // passes. Its restart founds every ring as a new incarnation.
  engine_.set_restart_hook([this](NodeId id) {
    std::vector<std::uint64_t>& counters = stacks_.at(id).counters;
    std::fill(counters.begin(), counters.end(), 0);
    c_->restart(id);
  });
}

MultiRingChaosCluster::~MultiRingChaosCluster() {
  traffic_on_ = false;
  for (auto& [id, st] : stacks_) {
    if (st.traffic_timer) c_->net().loop().cancel(st.traffic_timer);
  }
}

bool MultiRingChaosCluster::bootstrap(Time timeout) {
  c_->found_all();
  if (run_until(c_->net().loop(), timeout,
                [this] { return c_->converged(c_->ids()); })) {
    return true;
  }
  violation("bootstrap: not every ring converged");
  return false;
}

void MultiRingChaosCluster::start_traffic(NodeId id) {
  Stack& stack = stacks_.at(id);
  Time gap =
      millis(8) + static_cast<Time>(stack.traffic_rng.next_below(millis(8)));
  stack.traffic_timer = c_->net().loop().schedule(gap, [this, id] {
    Stack& st = stacks_.at(id);
    st.traffic_timer = 0;
    if (!traffic_on_) return;
    // Round-robin the rings so every shard sees load each epoch.
    const std::size_t r =
        static_cast<std::size_t>(st.traffic_rng.next_below(n_rings_));
    session::SessionNode& ring = c_->node(id, r);
    if (ring.started() && ring.view().has(id)) {
      std::string payload = "c:" + std::to_string(id) + ":" +
                            std::to_string(c_->epoch(id)) + ":" +
                            std::to_string(st.counters[r]++);
      ring.multicast(Bytes(payload.begin(), payload.end()));
    }
    start_traffic(id);
  });
}

void MultiRingChaosCluster::run_chaos(Time duration) {
  traffic_on_ = true;
  for (NodeId id : c_->ids()) start_traffic(id);
  engine_.start();
  run_checking_tokens(c_->net().loop(), duration, c_->rings(), sink());
}

void MultiRingChaosCluster::violation(std::string what) {
  RC_WARN(kMod, "INVARIANT VIOLATION: %s", what.c_str());
  violations_.push_back(std::move(what));
}

metrics::Snapshot MultiRingChaosCluster::metrics_snapshot() const {
  return c_->metrics_snapshot();
}

std::string MultiRingChaosCluster::failure_report() const {
  std::string out = "=== multi-ring chaos failure report ===\n";
  out += "violations (" + std::to_string(violations_.size()) + "):\n";
  for (const std::string& v : violations_) out += "  " + v + "\n";
  out += engine_.describe_schedule();
  out += c_->ring_dump();
  return out;
}

void MultiRingChaosCluster::check_detector_consistency(
    const std::vector<NodeId>& live) {
  // Cross-ring detector consistency: one shared failure detector feeding K
  // rings must leave them agreeing at quiescence...
  for (NodeId id : live) {
    // Ring order (the token circulation order) legitimately differs per
    // ring — only the member SET must agree.
    std::vector<NodeId> ref = c_->node(id, 0).view().members;
    std::sort(ref.begin(), ref.end());
    for (std::size_t r = 1; r < n_rings_; ++r) {
      std::vector<NodeId> got = c_->node(id, r).view().members;
      std::sort(got.begin(), got.end());
      if (got != ref) {
        violation("detector consistency: node " + std::to_string(id) +
                  " rings 0 and " + std::to_string(r) +
                  " disagree on membership at quiescence");
      }
    }
    // ...and must exist exactly once per node: the shared transport owns
    // `transport.*`; a per-ring copy (e.g. "ring1.transport.rtt_samples")
    // would mean duplicated detection state.
    const auto snap = c_->mux(id).metrics_snapshot();
    std::size_t plain = 0, prefixed = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "transport.rtt_samples") {
        ++plain;
      } else if (name.find("transport.rtt_samples") != std::string::npos) {
        ++prefixed;
      }
    }
    if (plain != 1 || prefixed != 0) {
      violation("detector state: node " + std::to_string(id) + " has " +
                std::to_string(plain) + " shared + " +
                std::to_string(prefixed) +
                " per-ring transport.rtt_samples instruments (want 1 + 0)");
    }
  }
}

void MultiRingChaosCluster::heal_and_check(Time converge_timeout) {
  engine_.stop_and_heal();
  // Every ring must hold the full view through the stability window at once.
  const std::vector<NodeId>& live = c_->ids();
  const RingTable rings = c_->rings();
  settle_and_check_rings(c_->net().loop(), rings, live, converge_timeout,
                         c_->node(live.front()).config().token_hold,
                         [this] { traffic_on_ = false; }, c_->log_of(),
                         sink());
  FinalBatch batch;
  batch.per_node = 3;
  batch.timeout = millis(4000);
  batch.send = [this](NodeId id, std::size_t r, const std::string& p) {
    c_->node(id, r).multicast(Bytes(p.begin(), p.end()));
  };
  check_final_batch(c_->net().loop(), rings, live, batch, c_->log_of(),
                    sink());
  check_detector_consistency(live);
}

ChaosRoundResult run_multi_ring_round(std::uint64_t seed, Time chaos_duration,
                                      std::size_t n_nodes,
                                      std::size_t n_rings,
                                      ChaosProfile profile) {
  RoundSetup setup = round_setup(seed, n_nodes, profile, 0xc2b2ae3d27d4eb4fULL);
  MultiRingChaosCluster cluster(setup.ids, n_rings, setup.chaos,
                                setup.session, setup.net, setup.transport);
  return run_round(cluster, chaos_duration);
}

}  // namespace raincore::testing
