// Rainwall end-to-end: policy filtering, connection load balancing through
// the shared connection table, throughput accounting, health-monitor
// shutdown, and the §3.2 fail-over story (traffic resumes after a short
// hiccup when a gateway's cable is pulled).
#include <gtest/gtest.h>

#include "apps/rainwall/rainwall_cluster.h"

namespace raincore {
namespace {

using namespace raincore::apps;

RainwallClusterConfig small_config() {
  RainwallClusterConfig cfg;
  cfg.node.vip_pool = {"10.1.0.1", "10.1.0.2", "10.1.0.3", "10.1.0.4"};
  cfg.traffic.arrivals_per_sec = 100;
  cfg.traffic.mean_duration_s = 1.0;
  cfg.traffic.mean_rate_bps = 1e6;
  return cfg;
}

TEST(PolicyTest, FirstMatchSemantics) {
  FirewallPolicy p(Action::kDeny);
  Rule allow_web;
  allow_web.action = Action::kAllow;
  allow_web.dport_lo = 80;
  allow_web.dport_hi = 80;
  p.add_rule(allow_web);
  Rule deny_net;
  deny_net.action = Action::kDeny;
  deny_net.src_net = parse_ip("10.9.0.0");
  deny_net.src_mask = parse_ip("255.255.0.0");
  p.add_rule(deny_net);

  FiveTuple web{parse_ip("10.0.0.5"), parse_ip("192.168.0.1"), 1234, 80, 6};
  EXPECT_EQ(p.evaluate(web), Action::kAllow);
  FiveTuple bad{parse_ip("10.9.1.1"), parse_ip("192.168.0.1"), 1234, 80, 6};
  // First match wins: port-80 allow precedes the subnet deny.
  EXPECT_EQ(p.evaluate(bad), Action::kAllow);
  FiveTuple ssh{parse_ip("10.0.0.5"), parse_ip("192.168.0.1"), 1234, 22, 6};
  EXPECT_EQ(p.evaluate(ssh), Action::kDeny);  // default
}

TEST(PolicyTest, IpParsingRoundTrip) {
  EXPECT_EQ(parse_ip("192.168.1.42"), 0xC0A8012Au);
  EXPECT_EQ(format_ip(0xC0A8012Au), "192.168.1.42");
  EXPECT_EQ(parse_ip("not-an-ip"), 0u);
  EXPECT_EQ(parse_ip("300.1.1.1"), 0u);
}

TEST(PacketEngineTest, ForwardsOfferedLoadUnderCapacity) {
  FirewallPolicy p(Action::kAllow);
  PacketEngine e(p);
  Connection c;
  c.id = 1;
  c.rate_bps = 10e6;
  c.end = seconds(1000);
  ASSERT_TRUE(e.admit(c));
  std::uint64_t bytes = e.tick(millis(100), 0);
  EXPECT_NEAR(static_cast<double>(bytes), 10e6 * 0.1 / 8, 1e4);
  EXPECT_LT(e.cpu_utilization(), 0.2);
}

TEST(PacketEngineTest, SaturatesNearLineRate) {
  FirewallPolicy p(Action::kAllow);
  PacketEngine e(p);
  for (int i = 0; i < 50; ++i) {
    Connection c;
    c.id = i;
    c.rate_bps = 10e6;  // 500 Mb/s offered in total
    c.end = seconds(1000);
    e.admit(c);
  }
  std::uint64_t bytes = e.tick(seconds(1), 0);
  double mbps = bytes * 8.0 / 1e6;
  // CPU-limited just under 100 Mb/s Fast Ethernet (≈ the paper's 95).
  EXPECT_GT(mbps, 85.0);
  EXPECT_LT(mbps, 100.0);
  EXPECT_GT(e.cpu_utilization(), 0.95);
}

TEST(PacketEngineTest, TaskSwitchesStealForwardingCapacity) {
  FirewallPolicy p(Action::kAllow);
  PacketEngine e1(p), e2(p);
  for (int i = 0; i < 50; ++i) {
    Connection c;
    c.id = i;
    c.rate_bps = 10e6;
    c.end = seconds(1000);
    e1.admit(c);
    e2.admit(c);
  }
  std::uint64_t quiet = e1.tick(seconds(1), 0);
  std::uint64_t noisy = e2.tick(seconds(1), 2000);  // 2000 switches/s
  EXPECT_LT(noisy, quiet) << "GC task switches must cost forwarding capacity";
  EXPECT_GT(e2.gc_cpu_fraction(), 0.1);
}

TEST(PacketEngineTest, PolicyDenialBlocksConnection) {
  FirewallPolicy p(Action::kDeny);
  PacketEngine e(p);
  Connection c;
  c.id = 1;
  c.rate_bps = 1e6;
  EXPECT_FALSE(e.admit(c));
  EXPECT_EQ(e.active_connections(), 0u);
  EXPECT_EQ(e.conns_denied().value(), 1u);
}

TEST(RainwallClusterTest, BootsAndCarriesTraffic) {
  RainwallCluster c({1, 2}, small_config());
  ASSERT_TRUE(c.start());
  c.run(seconds(5));
  double mbps = c.mean_mbps(c.now() - seconds(3), c.now());
  EXPECT_GT(mbps, 10.0) << "cluster is not forwarding traffic";
  EXPECT_GT(c.connections_started(), 100u);
}

TEST(RainwallClusterTest, ConnectionsSpreadAcrossNodes) {
  RainwallCluster c({1, 2, 3}, small_config());
  ASSERT_TRUE(c.start());
  c.run(seconds(5));
  // The least-loaded assignment must keep every engine busy.
  for (NodeId id : {1u, 2u, 3u}) {
    EXPECT_GT(c.node(id).engine().active_connections(), 5u) << "node " << id;
  }
}

TEST(RainwallClusterTest, FailoverUnderTwoSeconds) {
  auto cfg = small_config();
  cfg.traffic.arrivals_per_sec = 200;
  RainwallCluster c({1, 2}, cfg);
  ASSERT_TRUE(c.start());
  c.run(seconds(4));
  double before = c.mean_mbps(c.now() - seconds(2), c.now());
  ASSERT_GT(before, 10.0);

  // Pull the cable on node 2 mid-flight (§3.2's experiment).
  Time fail_at = c.now();
  c.fail_node(2);
  c.run(seconds(6));

  double after = c.mean_mbps(fail_at + seconds(3), c.now());
  EXPECT_GT(after, before * 0.5)
      << "traffic did not resume on the surviving gateway";
  // The hiccup must be under the paper's 2-second bound.
  Time gap = c.longest_gap_below(before * 0.3, fail_at);
  EXPECT_LT(gap, seconds(2)) << "fail-over took " << format_time(gap);
}

TEST(RainwallClusterTest, HealthMonitorShutsDownNodeAndTrafficMoves) {
  RainwallCluster c({1, 2}, small_config());
  ASSERT_TRUE(c.start());
  c.run(seconds(2));
  // Inject a critical-resource failure on node 2 (e.g. its Internet link).
  bool internet_up = true;
  c.node(2).monitor().add_resource("internet-link",
                                   [&internet_up] { return internet_up; });
  internet_up = false;
  c.run(seconds(3));
  EXPECT_FALSE(c.node(2).active()) << "node must shut itself down (§2.4)";
  // All VIPs now answered by node 1.
  for (const auto& vip : c.node(1).vips().pool()) {
    ASSERT_TRUE(c.subnet().resolve(vip).has_value());
    EXPECT_EQ(*c.subnet().resolve(vip), 1u) << vip;
  }
}

TEST(RainwallClusterTest, ConnectionsOfDeadNodeAreReassignedNotDropped) {
  auto cfg = small_config();
  cfg.traffic.mean_duration_s = 30.0;  // long-lived flows survive the test
  cfg.traffic.arrivals_per_sec = 30;
  RainwallCluster c({1, 2}, cfg);
  ASSERT_TRUE(c.start());
  c.run(seconds(4));
  std::size_t on_node2 = c.node(2).engine().active_connections();
  ASSERT_GT(on_node2, 0u);
  std::size_t table_before = c.node(1).conn_table().contents().size();

  c.fail_node(2);
  c.run(seconds(5));
  // Node 1 now serves (roughly) the whole table: the dead node's flows were
  // re-assigned via the shared connection table, not dropped.
  std::size_t table_after = c.node(1).conn_table().contents().size();
  EXPECT_GT(c.node(1).engine().active_connections(),
            table_before / 2)
      << "survivor did not take over the dead node's connections";
  // Every table entry is assigned to the live node.
  (void)table_after;
  for (const auto& [key, value] : c.node(1).conn_table().contents()) {
    EXPECT_EQ(value.substr(0, 2), "1|") << key << " still assigned to dead node";
  }
}

TEST(RainwallClusterTest, AssignmentAppliedAfterItsAssigneeLeftIsReassigned) {
  // Regression: the dying node is the least loaded member, so node 1 keeps
  // assigning new connections to it until the failure is detected. Rows
  // applied after the view change miss on_view's fail-over pass; the apply
  // itself must hand them to a live member instead of stranding them.
  auto cfg = small_config();
  cfg.traffic.arrivals_per_sec = 1e-6;  // connections come from the test
  RainwallCluster c({1, 2}, cfg);
  ASSERT_TRUE(c.start());
  auto conn = [&](std::uint64_t id, double rate_bps) {
    Connection k;
    k.id = id;
    k.vip = cfg.node.vip_pool[0];
    k.rate_bps = rate_bps;
    k.start = c.now();
    k.end = c.now() + seconds(60);
    k.tuple = FiveTuple{parse_ip("10.0.0.9"), parse_ip("192.168.0.1"),
                        static_cast<std::uint16_t>(1000 + id), 80, 6};
    return k;
  };
  c.node(1).on_new_connection(conn(1, 50e6));  // loads node 1
  c.run(seconds(1));
  ASSERT_EQ(c.node(1).conn_table().contents().size(), 1u);

  c.fail_node(2);
  for (std::uint64_t id = 2; id <= 31; ++id) {
    c.node(1).on_new_connection(conn(id, 1e6));
    c.run(millis(10));
  }
  c.run(seconds(3));
  ASSERT_EQ(c.node(1).session().view().members, std::vector<NodeId>{1});
  EXPECT_EQ(c.node(1).conn_table().contents().size(), 31u);
  for (const auto& [key, value] : c.node(1).conn_table().contents()) {
    EXPECT_EQ(value.substr(0, 2), "1|") << key << " stranded on the dead node";
  }
  EXPECT_EQ(c.node(1).engine().active_connections(), 31u);
}

TEST(RainwallClusterTest, LateJoinerRebuildsEngineFromSnapshot) {
  auto cfg = small_config();
  cfg.traffic.mean_duration_s = 30.0;
  RainwallCluster c({1, 2, 3}, cfg);
  // Boot only nodes 1 and 2 by failing 3's start... instead: start all,
  // then verify a restarted node re-learns the table. Crash node 3:
  ASSERT_TRUE(c.start());
  c.run(seconds(4));
  c.fail_node(3);
  c.node(3).session().stop();
  c.run(seconds(4));
  ASSERT_GT(c.node(1).conn_table().contents().size(), 0u);

  // Restart node 3: it must resync the connection table via snapshot and
  // pick up any connections assigned to it afterwards.
  c.net().set_node_up(3, true);
  c.node(3).start_join({1});
  c.run(seconds(8));
  EXPECT_TRUE(c.node(3).conn_table().synced());
  // Traffic keeps mutating the table; replicas apply ops at their own token
  // arrival, so compare up to the ops of the current round.
  double a = static_cast<double>(c.node(3).conn_table().contents().size());
  double b = static_cast<double>(c.node(1).conn_table().contents().size());
  EXPECT_NEAR(a, b, 32.0) << "joiner's table is not tracking the group's";
  EXPECT_GT(a, 100.0);
}

TEST(RainwallClusterTest, RaincoreCpuOverheadIsBelowOnePercent) {
  // §4.2: "Throughout the test, Rainwall CPU usage is below 1%."
  RainwallCluster c({1, 2, 3, 4}, small_config());
  ASSERT_TRUE(c.start());
  c.run(seconds(5));
  double gc_cpu_sum = 0;
  int n = 0;
  for (const auto& s : c.samples()) {
    if (s.at > seconds(2)) {
      gc_cpu_sum += s.gc_cpu;
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(gc_cpu_sum / n, 0.01);
}

}  // namespace
}  // namespace raincore
