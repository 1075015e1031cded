// SessionMux, the one node shape of the simulator: the shared transport is
// on while any of its rings is started and off once the last one stops, and
// the shared detector fans a failure-on-delivery out to every *other* ring
// (the ring whose transfer failed learns of it through its own callback).
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "testing/cluster.h"

namespace raincore {
namespace {

using session::SessionConfig;
using session::SessionNode;
using testing::Cluster;
using transport::MuxGroup;

/// Demux group with no ring on it: a transport-level probe that a live
/// transport acks (and then drops as an unknown group).
constexpr MuxGroup kProbeGroup = 99;

/// Steps virtual time in 500 µs increments until pred holds.
bool run_until(Cluster& c, const std::function<bool()>& pred, Time timeout) {
  return testing::run_until(c.net().loop(), timeout, pred, micros(500)) ||
         pred();
}

/// A reliable transfer from `from`'s transport to `to` on a ring-less
/// group. True when it ends in failure-on-delivery (to is silent), false
/// when `to`'s transport acks it.
bool probe_fails(Cluster& c, NodeId from, NodeId to) {
  bool delivered = false, failed = false;
  c.mux(from).transport().send_on(
      kProbeGroup, to, Slice::take(Bytes{0x7e}),
      [&](transport::TransferId, NodeId) { delivered = true; },
      [&](transport::TransferId, NodeId) { failed = true; });
  EXPECT_TRUE(run_until(c, [&] { return delivered || failed; }, seconds(5)));
  return failed;
}

/// Node 1 founds every ring, the rest join through it.
bool form(Cluster& c) {
  c.bootstrap_via_join();
  return c.run_until_converged(c.ids(), seconds(10));
}

std::uint64_t suspect_removals(SessionNode& r) {
  return r.metrics().counter("session.suspect_removals").value();
}

// --- The transport on/off rule ------------------------------------------------

TEST(SessionMuxTransport, OnAfterFoundAndJoin) {
  Cluster c({1, 2});
  ASSERT_TRUE(form(c));
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_TRUE(c.mux(2).enabled());
  EXPECT_FALSE(probe_fails(c, 2, 1));

  // Off with the stopped ring; a re-found ring switches it back on...
  c.node(1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  c.node(1).found();
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_FALSE(probe_fails(c, 2, 1));

  // ...and so does a join.
  c.node(1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  c.node(1).join({2});
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_FALSE(probe_fails(c, 2, 1));
}

TEST(SessionMuxTransport, OffAfterOnlyRingStops) {
  // A crash-stopped one-ring node is silent to its peers, exactly as a
  // dead process would be: a transfer to it fails on delivery instead of
  // being acked by a transport that outlived its ring.
  Cluster c({1, 2});
  ASSERT_TRUE(form(c));
  c.node(1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(probe_fails(c, 2, 1));
}

TEST(SessionMuxTransport, OffAfterOnlyRingLeaves) {
  Cluster c({1, 2});
  ASSERT_TRUE(form(c));
  c.node(1).leave();
  ASSERT_TRUE(run_until(c, [&] { return !c.node(1).started(); }, seconds(2)));
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(probe_fails(c, 2, 1));
  // The leave was graceful: the survivor saw a view shrink, not a failure.
  EXPECT_EQ(c.node(2).view().members, std::vector<NodeId>{2});
  EXPECT_EQ(c.node(2).stats().removals.value(), 0u);
}

TEST(SessionMuxTransport, OffAfterQuorumShutdown) {
  // Ring {1, 2} with quorum_of = 2: losing node 2 leaves node 1 at half
  // the group, so its ring shuts itself down (§2.4 strategy 1) and its
  // transport goes silent. Node 3 never starts a ring; it only probes.
  SessionConfig cfg;
  cfg.eligible = {1, 2};
  cfg.quorum_of = 2;
  Cluster c({1, 2, 3}, cfg);
  c.node(1).found();
  c.node(2).join({1});
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(10)));
  bool shut_down = false;
  c.node(1).set_quorum_shutdown_handler([&] { shut_down = true; });
  c.mux(2).set_enabled(false);
  ASSERT_TRUE(run_until(c, [&] { return shut_down; }, seconds(2)));
  EXPECT_FALSE(c.node(1).started());
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(probe_fails(c, 3, 1));
}

TEST(SessionMuxTransport, StoppingOneOfTwoRingsKeepsTransportOn) {
  Cluster c({1, 2}, Cluster::Rings(2));
  ASSERT_TRUE(form(c));
  c.node(1, 0).stop();
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_FALSE(probe_fails(c, 2, 1));
  c.node(1, 1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(probe_fails(c, 2, 1));
}

// --- Shared detector: a ring's own failed transfer is not fanned back -------

TEST(SessionMuxDetector, OwnFailedPassIsRetriedUnderProbation) {
  // One-ring mux, adaptive detector: node 1's pass to node 2 fails once
  // (both directions blacked out), then the link returns. The ring learns
  // of the failure through its own callback only, so it spends its one
  // probation attempt on a retry that lands; node 2 stays in the ring.
  // Fanning the same failure back into this ring as a suspicion would
  // take the stuck-passer shortcut first, spend the budget, and let the
  // ring's own callback remove node 2.
  transport::TransportConfig tcfg;
  tcfg.adaptive = true;
  Cluster c({1, 2}, SessionConfig{}, {}, tcfg);
  ASSERT_TRUE(form(c));
  c.run(millis(200));  // prime the RTT estimators

  SessionNode& r1 = c.node(1);
  ASSERT_TRUE(run_until(c, [&] { return r1.holds_token(); }, seconds(1)));
  c.net().set_link_up(1, 2, false);
  ASSERT_TRUE(run_until(c, 
      [&] {
        return r1.stats().probation_retries.value() > 0 ||
               r1.stats().removals.value() > 0;
      },
      seconds(1)));
  c.net().set_link_up(1, 2, true);
  c.run(seconds(1));

  EXPECT_EQ(r1.stats().removals.value(), 0u) << "successor removed";
  EXPECT_EQ(r1.stats().probation_retries.value(), 1u);
  EXPECT_EQ(r1.stats().probation_saves.value(), 1u);
  EXPECT_EQ(suspect_removals(r1), 0u);
  EXPECT_EQ(r1.view().members.size(), 2u);
  EXPECT_EQ(c.node(2).view().members.size(), 2u);
}

TEST(SessionMuxDetector, FailingRingOwnsItsRemovalSiblingActsOnSuspicion) {
  // Two rings on {1, 2}. Node 2 dies while node 1 holds ring 0's token and
  // node 2 holds ring 1's. Ring 0's next pass fails on delivery: ring 0
  // removes node 2 as its own detection. Ring 1 on node 1 has nothing in
  // flight (its token died with node 2); the fanned-out suspicion lets it
  // cut over at once instead of starving into a 911 round.
  SessionConfig slow;
  slow.token_hold = millis(50);
  Cluster c({1, 2}, Cluster::Rings{SessionConfig{}, slow});
  ASSERT_TRUE(form(c));
  SessionNode& a = c.node(1, 0);
  SessionNode& b = c.node(1, 1);
  ASSERT_TRUE(run_until(c, 
      [&] { return a.holds_token() && c.node(2, 1).holds_token(); },
      seconds(5)));
  c.mux(2).set_enabled(false);
  c.net().set_node_up(2, false);
  ASSERT_TRUE(run_until(c, 
      [&] { return !a.view().has(2) && !b.view().has(2); }, seconds(2)));

  EXPECT_EQ(a.stats().removals.value(), 1u);
  EXPECT_EQ(suspect_removals(a), 0u) << "own failure counted as a suspicion";
  EXPECT_EQ(b.stats().removals.value(), 1u);
  EXPECT_EQ(suspect_removals(b), 1u) << "sibling ignored the fan-out";
  EXPECT_EQ(b.stats().starvations.value(), 0u);
}

}  // namespace
}  // namespace raincore
