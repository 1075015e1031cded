// One Rainwall gateway (paper §3.2): firewall + Raincore session service +
// Virtual IP manager + kernel packet engine + critical-resource monitor.
//
// Load balancing happens at two granularities, as in the product:
//   * coarse: the VIP manager spreads the advertised virtual IPs across
//     healthy members;
//   * fine: the owner of a VIP assigns each arriving connection to the
//     least-loaded member, and the assignment is shared cluster-wide
//     through a replicated connection table ("the load and connection
//     assignment information are shared among the cluster using the
//     Raincore Distributed Session Service").
#pragma once

#include <memory>

#include "apps/rainwall/health.h"
#include "apps/rainwall/packet_engine.h"
#include "apps/rainwall/traffic.h"
#include "apps/vip/vip_manager.h"
#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "session/session_mux.h"

namespace raincore::apps {

struct RainwallConfig {
  RainwallConfig() {
    // Product-like pacing: a 20 ms token hold keeps the group-communication
    // CPU share well under the 1% the paper reports (§4.2) while still
    // detecting failures fast enough for the <2 s fail-over bound (§3.2).
    session.token_hold = millis(20);
  }

  session::SessionConfig session;
  std::vector<std::string> vip_pool;
  EngineConfig engine;
  Action default_policy = Action::kAllow;
  Time health_interval = millis(200);
  data::Channel vip_channel = 100;
  data::Channel conn_channel = 101;
};

class RainwallNode {
 public:
  RainwallNode(net::NodeEnv& env, Subnet& subnet, RainwallConfig cfg);

  void start_founder();
  void start_join(std::vector<NodeId> contacts);
  /// Graceful shutdown: stop serving and leave the group (also invoked by
  /// the resource monitor when a critical resource fails).
  void shutdown();

  bool active() const { return session_.started(); }
  NodeId id() const { return session_.id(); }

  /// Entry point for a connection whose VIP this node owns: policy check,
  /// then least-loaded assignment through the replicated connection table.
  void on_new_connection(const Connection& c);

  /// Advances the packet engine by dt; returns bytes forwarded. Accounts
  /// the GC task switches that happened on this node since the last tick.
  std::uint64_t tick(Time dt);

  session::SessionNode& session() { return session_; }
  VipManager& vips() { return vips_; }
  FirewallPolicy& policy() { return policy_; }
  PacketEngine& engine() { return engine_; }
  ResourceMonitor& monitor() { return monitor_; }
  data::ReplicatedMap& conn_table() { return conn_table_; }

 private:
  void on_conn_change(const std::string& key,
                      const std::optional<std::string>& value, NodeId origin);
  void on_view(const session::View& v);
  /// Connection fail-over for one table row: if its assignee is not in
  /// `v`, the member responsible for the row (its VIP's owner, or the
  /// lowest member while that VIP is orphaned) re-assigns it.
  void reassign_if_orphaned(const session::View& v, const std::string& key,
                            const Connection& c, NodeId assignee);
  NodeId least_loaded() const;
  static std::string encode_conn(const Connection& c, NodeId assignee);
  static bool decode_conn(const std::string& s, Connection& c, NodeId& assignee);

  net::NodeEnv& env_;
  RainwallConfig cfg_;
  session::SessionMux node_;  ///< the gateway's transport and its one ring
  session::SessionNode& session_;
  data::ChannelMux mux_;
  Subnet& subnet_;
  FirewallPolicy policy_;
  VipManager vips_;
  data::ReplicatedMap conn_table_;
  PacketEngine engine_;
  ResourceMonitor monitor_;
  std::uint64_t last_task_switches_ = 0;
};

}  // namespace raincore::apps
