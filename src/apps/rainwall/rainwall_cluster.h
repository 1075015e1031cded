// Rainwall cluster simulation harness: the stand-in for the Rainfinity lab
// testbed of §4.2 (HTTP clients on one side, Apache servers on the other,
// Sun Ultra-5 gateways in between on switched Fast Ethernet).
//
// Drives a SimNetwork full of RainwallNodes with synthetic web traffic,
// routes each connection to the gateway the subnet's ARP cache points at, and
// records a per-interval aggregate throughput time series — which is what
// Figure 3 (throughput/scaling) and the <2 s fail-over claim are read from.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "apps/rainwall/rainwall_node.h"
#include "net/sim_network.h"

namespace raincore::apps {

struct RainwallClusterConfig {
  RainwallConfig node;
  TrafficConfig traffic;
  std::uint64_t seed = 1;
};

class RainwallCluster {
 public:
  RainwallCluster(std::vector<NodeId> ids, RainwallClusterConfig cfg);

  /// Boots the cluster (first node founds, rest join) and waits for
  /// convergence. Returns false if the group did not form in time.
  bool start(Time timeout = seconds(15));

  /// Runs the workload for `d`, advancing protocol and traffic together.
  void run(Time d);

  /// Simulates a cable pull on a gateway (NIC dead, node unreachable).
  void fail_node(NodeId id);

  RainwallNode& node(NodeId id) { return *nodes_.at(id); }
  net::SimNetwork& net() { return net_; }
  Subnet& subnet() { return subnet_; }
  Time now() const { return net_.now(); }

  struct Sample {
    Time at;
    double mbps;         ///< aggregate forwarded throughput in the interval
    double offered_mbps; ///< demand admitted to engines
    double gc_cpu;       ///< mean GC CPU fraction across live nodes
  };
  const std::vector<Sample>& samples() const { return samples_; }

  /// Mean aggregate throughput (Mb/s) over [from, to].
  double mean_mbps(Time from, Time to) const;

  /// Longest run of consecutive samples below `threshold_mbps` that starts
  /// at or after `from` (the fail-over gap measurement).
  Time longest_gap_below(double threshold_mbps, Time from) const;

  std::uint64_t connections_started() const { return conns_started_; }
  std::uint64_t connections_lost() const { return conns_lost_; }

 private:
  void tick_traffic(Time dt);

  RainwallClusterConfig cfg_;
  net::SimNetwork net_;
  Subnet subnet_;
  std::vector<NodeId> ids_;
  std::map<NodeId, std::unique_ptr<RainwallNode>> nodes_;
  std::unique_ptr<TrafficGenerator> traffic_;
  std::vector<Connection> active_conns_;
  std::vector<Sample> samples_;
  std::uint64_t conns_started_ = 0;
  std::uint64_t conns_lost_ = 0;
};

}  // namespace raincore::apps
