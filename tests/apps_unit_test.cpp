// Application-layer unit tests: channel mux, subnet/ARP, health monitor,
// traffic generator, and the firewall rule engine details.
#include <gtest/gtest.h>

#include <memory>

#include "apps/rainwall/health.h"
#include "apps/rainwall/traffic.h"
#include "apps/vip/subnet.h"
#include "data/channel_mux.h"
#include "net/sim_network.h"
#include "session/session_mux.h"

namespace raincore {
namespace {

using apps::ResourceMonitor;
using apps::Subnet;
using apps::TrafficConfig;
using apps::TrafficGenerator;

TEST(SubnetTest, GratuitousArpUpdatesCache) {
  Subnet s;
  EXPECT_FALSE(s.resolve("10.0.0.1").has_value());
  s.gratuitous_arp("10.0.0.1", 3);
  EXPECT_EQ(*s.resolve("10.0.0.1"), 3u);
  s.gratuitous_arp("10.0.0.1", 5);
  EXPECT_EQ(*s.resolve("10.0.0.1"), 5u);
  EXPECT_EQ(s.gratuitous_arps().value(), 2u);
  ASSERT_EQ(s.arp_log().size(), 2u);
  EXPECT_EQ(s.arp_log()[1].owner, 5u);
}

TEST(SubnetTest, UnreachableNodeCannotArp) {
  Subnet s;
  s.set_reachability([](NodeId id) { return id != 9; });
  s.gratuitous_arp("10.0.0.1", 1);
  s.gratuitous_arp("10.0.0.1", 9);  // cable pulled: frame never hits the wire
  EXPECT_EQ(*s.resolve("10.0.0.1"), 1u);
  EXPECT_EQ(s.arps_dropped().value(), 1u);
}

TEST(SubnetTest, FlushForgetsEntry) {
  Subnet s;
  s.gratuitous_arp("vip", 1);
  s.flush("vip");
  EXPECT_FALSE(s.resolve("vip").has_value());
}

TEST(ResourceMonitorTest, DetectsFirstFailingResource) {
  net::SimNetwork net;
  auto& env = net.add_node(1);
  ResourceMonitor mon(env, millis(50));
  bool nic_ok = true;
  bool app_ok = true;
  mon.add_resource("nic", [&] { return nic_ok; });
  mon.add_resource("app", [&] { return app_ok; });
  std::string failed;
  mon.set_failure_handler([&](const std::string& name) { failed = name; });
  mon.start();
  net.loop().run_for(millis(500));
  EXPECT_TRUE(failed.empty());
  app_ok = false;
  net.loop().run_for(millis(200));
  EXPECT_EQ(failed, "app");
  EXPECT_FALSE(mon.running()) << "monitor must stop after reporting";
}

TEST(ResourceMonitorTest, FiresAtMostOnce) {
  net::SimNetwork net;
  auto& env = net.add_node(1);
  ResourceMonitor mon(env, millis(10));
  mon.add_resource("always-bad", [] { return false; });
  int fires = 0;
  mon.set_failure_handler([&](const std::string&) { ++fires; });
  mon.start();
  net.loop().run_for(millis(500));
  EXPECT_EQ(fires, 1);
}

TEST(ResourceMonitorTest, StopPreventsFurtherChecks) {
  net::SimNetwork net;
  auto& env = net.add_node(1);
  ResourceMonitor mon(env, millis(10));
  int probes = 0;
  mon.add_resource("probe", [&] {
    ++probes;
    return true;
  });
  mon.start();
  net.loop().run_for(millis(100));
  mon.stop();
  int at_stop = probes;
  net.loop().run_for(millis(100));
  EXPECT_EQ(probes, at_stop);
}

TEST(TrafficGeneratorTest, DeterministicFromSeed) {
  TrafficConfig cfg;
  cfg.vips = {"a", "b"};
  TrafficGenerator g1(cfg, 42), g2(cfg, 42);
  auto a = g1.arrivals(0, seconds(5));
  auto b = g2.arrivals(0, seconds(5));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].vip, b[i].vip);
  }
}

TEST(TrafficGeneratorTest, ArrivalRateIsRoughlyCorrect) {
  TrafficConfig cfg;
  cfg.arrivals_per_sec = 100;
  cfg.vips = {"a"};
  TrafficGenerator g(cfg, 7);
  auto conns = g.arrivals(0, seconds(20));
  EXPECT_NEAR(static_cast<double>(conns.size()), 2000.0, 200.0);
}

TEST(TrafficGeneratorTest, ArrivalsAreMonotoneAndInWindow) {
  TrafficConfig cfg;
  cfg.vips = {"a", "b", "c"};
  TrafficGenerator g(cfg, 9);
  Time prev = -1;
  for (Time t = 0; t < seconds(5); t += seconds(1)) {
    for (const auto& c : g.arrivals(t, t + seconds(1))) {
      EXPECT_GE(c.start, t);
      EXPECT_LT(c.start, t + seconds(1));
      EXPECT_GE(c.start, prev);
      prev = c.start;
      EXPECT_GT(c.end, c.start);
      EXPECT_EQ(c.tuple.dst_port, 80);
    }
  }
}

TEST(ChannelMuxTest, RoutesByChannel) {
  net::SimNetwork net;
  session::SessionConfig cfg;
  cfg.eligible = {1, 2};
  session::SessionMux x1(net.add_node(1)), x2(net.add_node(2));
  session::SessionNode &n1 = x1.create_ring(0, cfg),
                       &n2 = x2.create_ring(0, cfg);
  data::ChannelMux m1(n1), m2(n2);
  std::vector<std::string> ch7, ch9;
  m2.subscribe(7, [&](NodeId, const Slice& p, session::Ordering) {
    ch7.emplace_back(p.begin(), p.end());
  });
  m2.subscribe(9, [&](NodeId, const Slice& p, session::Ordering) {
    ch9.emplace_back(p.begin(), p.end());
  });
  n1.found();
  n2.join({1});
  net.loop().run_for(seconds(2));
  std::string a = "seven", b = "nine";
  m1.send(7, Bytes(a.begin(), a.end()));
  m1.send(9, Bytes(b.begin(), b.end()));
  net.loop().run_for(seconds(1));
  ASSERT_EQ(ch7.size(), 1u);
  ASSERT_EQ(ch9.size(), 1u);
  EXPECT_EQ(ch7[0], "seven");
  EXPECT_EQ(ch9[0], "nine");
}

TEST(ChannelMuxTest, UnsubscribedChannelIsDropped) {
  net::SimNetwork net;
  session::SessionConfig cfg;
  cfg.eligible = {1};
  session::SessionMux x1(net.add_node(1));
  session::SessionNode& n1 = x1.create_ring(0, cfg);
  data::ChannelMux m1(n1);
  n1.found();
  net.loop().run_for(millis(100));
  m1.send(55, Bytes{1, 2, 3});
  net.loop().run_for(millis(200));  // must not crash or misroute
  SUCCEED();
}

TEST(ChannelMuxTest, MultipleViewSubscribersAllFire) {
  net::SimNetwork net;
  session::SessionConfig cfg;
  cfg.eligible = {1, 2};
  session::SessionMux x1(net.add_node(1)), x2(net.add_node(2));
  session::SessionNode &n1 = x1.create_ring(0, cfg),
                       &n2 = x2.create_ring(0, cfg);
  data::ChannelMux m1(n1);
  int a = 0, b = 0;
  m1.subscribe_views([&](const session::View&) { ++a; });
  m1.subscribe_views([&](const session::View&) { ++b; });
  data::ChannelMux m2(n2);
  n1.found();
  n2.join({1});
  net.loop().run_for(seconds(2));
  EXPECT_GT(a, 0);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace raincore
