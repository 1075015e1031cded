// Virtual IP Manager (paper §3.1).
//
// Maintains a pool of highly available virtual IPs, mutually exclusively
// assigned to cluster members. The assignment lives in a replicated map
// (Raincore Distributed Data Service); rebalancing is performed by the
// lowest-id member inside a run_exclusive section — the master-lock usage
// the paper describes — so assignments never conflict. When a VIP moves,
// its new owner sends a gratuitous ARP into the subnet; MAC addresses never
// move, and "the virtual IPs never disappear as long as at least one
// physical node is functional".
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "apps/vip/subnet.h"
#include "data/replicated_map.h"

namespace raincore::apps {

struct VipConfig {
  std::vector<std::string> pool;  ///< publicly advertised virtual IPs
  data::Channel channel = 100;    ///< replicated-map channel for assignments
};

class VipManager {
 public:
  using VipEventFn = std::function<void(const std::string& vip)>;

  VipManager(data::ChannelMux& mux, Subnet& subnet, VipConfig cfg);
  VipManager(const VipManager&) = delete;
  VipManager& operator=(const VipManager&) = delete;
  ~VipManager();

  /// VIPs this node currently serves.
  std::vector<std::string> my_vips() const;
  std::optional<NodeId> owner_of(const std::string& vip) const;
  const std::vector<std::string>& pool() const { return cfg_.pool; }

  /// Manual move (load balancing, §3.1): serialized through the agreed
  /// stream like every other assignment change.
  void move(const std::string& vip, NodeId target);

  void set_gain_handler(VipEventFn fn) { on_gain_ = std::move(fn); }
  void set_loss_handler(VipEventFn fn) { on_loss_ = std::move(fn); }

  /// Named views into the VIP registry ("app.vip.*" instruments).
  struct Stats {
    explicit Stats(metrics::Registry& r)
        : gains(r.counter("app.vip.gains")),
          losses(r.counter("app.vip.losses")),
          rebalances(r.counter("app.vip.rebalances")),
          arp_reasserts(r.counter("app.vip.arp_reasserts")) {}
    Counter &gains, &losses, &rebalances, &arp_reasserts;
  };
  const Stats& stats() const { return stats_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  void on_view(const session::View& v);
  void schedule_reassert();
  void reassert_arps();
  void maybe_schedule_rebalance();
  void rebalance(const session::View& v);
  void on_assignment_change();
  bool is_rebalancer() const;
  bool grossly_unbalanced() const;

  data::ChannelMux& mux_;
  Subnet& subnet_;
  VipConfig cfg_;
  data::ReplicatedMap assignments_;
  std::set<std::string> mine_;
  bool rebalance_pending_ = false;
  bool needs_rebalance_ = false;  ///< open rebalancing window (view change)
  /// VIP keys written by our last rebalance pass that have not yet come
  /// back around the ring; no new pass starts until this drains (reads are
  /// stale while writes are in flight).
  std::set<std::string> inflight_writes_;
  std::uint64_t generation_ = 0;  ///< session incarnation we belong to
  net::TimerId reassert_timer_ = 0;
  VipEventFn on_gain_;
  VipEventFn on_loss_;
  metrics::Registry metrics_;
  Stats stats_{metrics_};
  Gauge& owned_gauge_ = metrics_.gauge("app.vip.owned");
};

}  // namespace raincore::apps
