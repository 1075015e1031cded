#include "apps/rainwall/rainwall_cluster.h"

#include <algorithm>

#include "common/log.h"

namespace raincore::apps {

namespace {
/// Sampling interval of the traffic model and the throughput series.
constexpr Time kTick = millis(10);

net::SimNetConfig make_net_config(std::uint64_t seed) {
  net::SimNetConfig ncfg;
  ncfg.seed = seed;
  return ncfg;
}
}  // namespace

RainwallCluster::RainwallCluster(std::vector<NodeId> ids,
                                 RainwallClusterConfig cfg)
    : cfg_(std::move(cfg)), net_(make_net_config(cfg_.seed)), ids_(std::move(ids)) {
  cfg_.node.session.eligible = ids_;
  if (cfg_.traffic.vips.empty()) cfg_.traffic.vips = cfg_.node.vip_pool;
  subnet_.set_reachability([this](NodeId id) { return net_.node_up(id); });
  for (NodeId id : ids_) {
    auto& env = net_.add_node(id);
    nodes_[id] = std::make_unique<RainwallNode>(env, subnet_, cfg_.node);
  }
  traffic_ = std::make_unique<TrafficGenerator>(cfg_.traffic, cfg_.seed ^ 0xbeef);
}

bool RainwallCluster::start(Time timeout) {
  auto it = nodes_.begin();
  it->second->start_founder();
  NodeId seed = it->first;
  for (++it; it != nodes_.end(); ++it) it->second->start_join({seed});

  Time deadline = net_.now() + timeout;
  auto ready = [&] {
    for (NodeId id : ids_) {
      auto view = nodes_.at(id)->session().view().members;
      if (view.size() != ids_.size()) return false;
    }
    // Every VIP must be owned and announced.
    for (const std::string& vip : cfg_.node.vip_pool) {
      auto owner = subnet_.resolve(vip);
      if (!owner) return false;
    }
    return true;
  };
  while (net_.now() < deadline && !ready()) net_.loop().run_for(millis(20));
  return ready();
}

void RainwallCluster::fail_node(NodeId id) { net_.set_node_up(id, false); }

void RainwallCluster::tick_traffic(Time dt) {
  for (const Connection& c : traffic_->arrivals(net_.now() - dt, net_.now())) {
    ++conns_started_;
    auto owner = subnet_.resolve(c.vip);
    if (!owner || !net_.node_up(*owner) || !nodes_.count(*owner) ||
        !nodes_.at(*owner)->active()) {
      ++conns_lost_;  // SYN to a dead gateway: client sees a failed connect
      continue;
    }
    nodes_.at(*owner)->on_new_connection(c);
  }

  std::uint64_t bytes = 0;
  double offered = 0;
  double gc_cpu_sum = 0;
  int live = 0;
  for (NodeId id : ids_) {
    RainwallNode& n = *nodes_.at(id);
    if (!net_.node_up(id) || !n.active()) continue;
    bytes += n.tick(dt);
    offered += n.engine().offered_bps();
    gc_cpu_sum += n.engine().gc_cpu_fraction();
    ++live;
  }
  Sample s;
  s.at = net_.now();
  s.mbps = static_cast<double>(bytes) * 8.0 / to_seconds(dt) / 1e6;
  s.offered_mbps = offered / 1e6;
  s.gc_cpu = live > 0 ? gc_cpu_sum / live : 0;
  samples_.push_back(s);
}

void RainwallCluster::run(Time d) {
  Time end = net_.now() + d;
  while (net_.now() < end) {
    net_.loop().run_for(kTick);
    tick_traffic(kTick);
  }
}

double RainwallCluster::mean_mbps(Time from, Time to) const {
  double sum = 0;
  int n = 0;
  for (const Sample& s : samples_) {
    if (s.at < from || s.at > to) continue;
    sum += s.mbps;
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

Time RainwallCluster::longest_gap_below(double threshold_mbps, Time from) const {
  Time longest = 0;
  Time current_start = -1;
  for (const Sample& s : samples_) {
    if (s.at < from) continue;
    if (s.mbps < threshold_mbps) {
      if (current_start < 0) current_start = s.at;
      longest = std::max(longest, s.at - current_start + kTick);
    } else {
      current_start = -1;
    }
  }
  return longest;
}

}  // namespace raincore::apps
