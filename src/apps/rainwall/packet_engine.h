// Kernel-level packet engine model (paper §3.2): forwards the connections
// assigned to this gateway, applies the firewall policy per connection, and
// accounts for the two physical limits of a late-90s gateway:
//
//   * the NIC: a switched Fast Ethernet port forwards at most ~100 Mb/s;
//   * the CPU: per-packet and per-byte processing cost, plus the
//     task-switch cost of servicing group communication — the metric the
//     paper's §4.1 overhead analysis is about.
//
// The per-node forwarding ceiling and the sub-linear part of Figure 3's
// scaling *emerge* from this model (CPU saturation, load imbalance and
// coordination overhead); nothing is curve-fitted to the paper's numbers.
#pragma once

#include <cstdint>
#include <map>

#include "apps/rainwall/policy.h"
#include "apps/rainwall/traffic.h"
#include "common/metrics.h"
#include "common/stats.h"

namespace raincore::apps {

class PacketEngine {
 public:
  explicit PacketEngine(const FirewallPolicy& policy) : policy_(&policy) {}

  /// Starts forwarding a connection (after policy evaluation). Returns
  /// false (and forwards nothing) if the policy denies it.
  bool admit(const Connection& c);
  void remove(std::uint64_t conn_id);
  bool has(std::uint64_t conn_id) const { return active_.count(conn_id) > 0; }
  std::size_t active_connections() const { return active_.size(); }

  /// Total bandwidth currently demanded by assigned connections.
  double offered_bps() const;

  /// Advances the engine by dt, given the number of group-communication
  /// task switches that occurred on this node during the interval.
  /// Returns bytes actually forwarded.
  std::uint64_t tick(Time dt, std::uint64_t gc_task_switches);

  /// CPU busy fraction during the last tick (traffic + GC).
  double cpu_utilization() const { return last_cpu_util_; }
  /// Fraction of the last tick's CPU spent on group communication.
  double gc_cpu_fraction() const { return last_gc_cpu_; }

  const Counter& conns_denied() const { return conns_denied_; }

  /// Engine instruments ("app.wall.*"): forwarding counts plus CPU-
  /// utilization gauges sampled at each tick.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  const FirewallPolicy* policy_;
  std::map<std::uint64_t, Connection> active_;
  metrics::Registry metrics_;
  Counter& bytes_forwarded_ = metrics_.counter("app.wall.bytes_forwarded");
  Counter& pkts_forwarded_ = metrics_.counter("app.wall.pkts_forwarded");
  Counter& conns_denied_ = metrics_.counter("app.wall.conns_denied");
  Gauge& cpu_util_gauge_ = metrics_.gauge("app.wall.cpu_util");
  Gauge& gc_cpu_gauge_ = metrics_.gauge("app.wall.gc_cpu_fraction");
  double last_cpu_util_ = 0;
  double last_gc_cpu_ = 0;
};

}  // namespace raincore::apps
