// SessionMux, the one node shape of the simulator: the shared transport is
// on while any of its rings is started and off once the last one stops, and
// the shared detector fans a failure-on-delivery out to every *other* ring
// (the ring whose transfer failed learns of it through its own callback).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/sim_network.h"
#include "session/session_mux.h"

namespace raincore {
namespace {

using session::SessionConfig;
using session::SessionMux;
using session::SessionNode;
using transport::MuxGroup;

/// Demux group with no ring on it: a transport-level probe that a live
/// transport acks (and then drops as an unknown group).
constexpr MuxGroup kProbeGroup = 99;

/// N simulated nodes, each a SessionMux carrying one ring per entry of
/// `rings` on groups 0..K-1. Ring g uses rings[g]; every ring's eligible
/// set defaults to all node ids.
class MuxCluster {
 public:
  MuxCluster(std::vector<NodeId> ids, std::vector<SessionConfig> rings,
             transport::TransportConfig tcfg = {})
      : ids_(std::move(ids)) {
    for (NodeId id : ids_) {
      auto mux = std::make_unique<SessionMux>(net_.add_node(id), tcfg);
      for (std::size_t g = 0; g < rings.size(); ++g) {
        SessionConfig cfg = rings[g];
        if (cfg.eligible.empty()) cfg.eligible = ids_;
        if (rings.size() > 1) cfg.metrics_prefix = "ring" + std::to_string(g) + ".";
        mux->create_ring(static_cast<MuxGroup>(g), cfg);
      }
      muxes_[id] = std::move(mux);
    }
  }

  SessionMux& mux(NodeId id) { return *muxes_.at(id); }
  SessionNode& ring(NodeId id, MuxGroup g = 0) { return *mux(id).ring(g); }
  net::SimNetwork& net() { return net_; }
  void run(Time d) { net_.loop().run_for(d); }

  /// `members[0]` founds every ring, the rest join through it; true once
  /// every ring on every member sees exactly `members`.
  bool form(const std::vector<NodeId>& members, Time timeout = seconds(10)) {
    for (NodeId id : members) {
      mux(id).for_each_ring([&](MuxGroup, SessionNode& r) {
        if (id == members.front()) {
          r.found();
        } else {
          r.join({members.front()});
        }
      });
    }
    return run_until(
        [&] {
          for (NodeId id : members) {
            bool ok = true;
            mux(id).for_each_ring([&](MuxGroup, SessionNode& r) {
              ok = ok && r.started() && r.view().members.size() == members.size();
            });
            if (!ok) return false;
          }
          return true;
        },
        timeout);
  }

  /// Steps virtual time in small increments until pred holds.
  bool run_until(const std::function<bool()>& pred, Time timeout) {
    const Time deadline = net_.now() + timeout;
    while (!pred()) {
      if (net_.now() >= deadline) return false;
      net_.loop().run_for(micros(500));
    }
    return true;
  }

  /// A reliable transfer from `from`'s transport to `to` on a ring-less
  /// group. True when it ends in failure-on-delivery (to is silent), false
  /// when `to`'s transport acks it.
  bool probe_fails(NodeId from, NodeId to) {
    bool delivered = false, failed = false;
    mux(from).transport().send_on(
        kProbeGroup, to, Slice::take(Bytes{0x7e}),
        [&](transport::TransferId, NodeId) { delivered = true; },
        [&](transport::TransferId, NodeId) { failed = true; });
    EXPECT_TRUE(run_until([&] { return delivered || failed; }, seconds(5)));
    return failed;
  }

 private:
  net::SimNetwork net_;
  std::vector<NodeId> ids_;
  std::map<NodeId, std::unique_ptr<SessionMux>> muxes_;
};

std::uint64_t suspect_removals(SessionNode& r) {
  return r.metrics().counter("session.suspect_removals").value();
}

// --- The transport on/off rule ------------------------------------------------

TEST(SessionMuxTransport, OnAfterFoundAndJoin) {
  MuxCluster c({1, 2}, {SessionConfig{}});
  ASSERT_TRUE(c.form({1, 2}));
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_TRUE(c.mux(2).enabled());
  EXPECT_FALSE(c.probe_fails(2, 1));

  // Off with the stopped ring; a re-found ring switches it back on...
  c.ring(1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  c.ring(1).found();
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_FALSE(c.probe_fails(2, 1));

  // ...and so does a join.
  c.ring(1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  c.ring(1).join({2});
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_FALSE(c.probe_fails(2, 1));
}

TEST(SessionMuxTransport, OffAfterOnlyRingStops) {
  // A crash-stopped one-ring node is silent to its peers, exactly as a
  // dead process would be: a transfer to it fails on delivery instead of
  // being acked by a transport that outlived its ring.
  MuxCluster c({1, 2}, {SessionConfig{}});
  ASSERT_TRUE(c.form({1, 2}));
  c.ring(1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(c.probe_fails(2, 1));
}

TEST(SessionMuxTransport, OffAfterOnlyRingLeaves) {
  MuxCluster c({1, 2}, {SessionConfig{}});
  ASSERT_TRUE(c.form({1, 2}));
  c.ring(1).leave();
  ASSERT_TRUE(c.run_until([&] { return !c.ring(1).started(); }, seconds(2)));
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(c.probe_fails(2, 1));
  // The leave was graceful: the survivor saw a view shrink, not a failure.
  EXPECT_EQ(c.ring(2).view().members, std::vector<NodeId>{2});
  EXPECT_EQ(c.ring(2).stats().removals.value(), 0u);
}

TEST(SessionMuxTransport, OffAfterQuorumShutdown) {
  // Ring {1, 2} with quorum_of = 2: losing node 2 leaves node 1 at half
  // the group, so its ring shuts itself down (§2.4 strategy 1) and its
  // transport goes silent. Node 3 never starts a ring; it only probes.
  SessionConfig cfg;
  cfg.eligible = {1, 2};
  cfg.quorum_of = 2;
  MuxCluster c({1, 2, 3}, {cfg});
  ASSERT_TRUE(c.form({1, 2}));
  bool shut_down = false;
  c.ring(1).set_quorum_shutdown_handler([&] { shut_down = true; });
  c.mux(2).set_enabled(false);
  ASSERT_TRUE(c.run_until([&] { return shut_down; }, seconds(2)));
  EXPECT_FALSE(c.ring(1).started());
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(c.probe_fails(3, 1));
}

TEST(SessionMuxTransport, StoppingOneOfTwoRingsKeepsTransportOn) {
  MuxCluster c({1, 2}, {SessionConfig{}, SessionConfig{}});
  ASSERT_TRUE(c.form({1, 2}));
  c.ring(1, 0).stop();
  EXPECT_TRUE(c.mux(1).enabled());
  EXPECT_FALSE(c.probe_fails(2, 1));
  c.ring(1, 1).stop();
  EXPECT_FALSE(c.mux(1).enabled());
  EXPECT_TRUE(c.probe_fails(2, 1));
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
  SessionConfig cfg;
  cfg.probation_passes = 1;
  MuxCluster c({1, 2}, {cfg}, tcfg);
  ASSERT_TRUE(c.form({1, 2}));
  c.run(millis(200));  // prime the RTT estimators

  SessionNode& r1 = c.ring(1);
  ASSERT_TRUE(c.run_until([&] { return r1.holds_token(); }, seconds(1)));
  c.net().set_link_up(1, 2, false);
  ASSERT_TRUE(c.run_until(
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
  EXPECT_EQ(c.ring(2).view().members.size(), 2u);
}

TEST(SessionMuxDetector, FailingRingOwnsItsRemovalSiblingActsOnSuspicion) {
  // Two rings on {1, 2}. Node 2 dies while node 1 holds ring 0's token and
  // node 2 holds ring 1's. Ring 0's next pass fails on delivery: ring 0
  // removes node 2 as its own detection. Ring 1 on node 1 has nothing in
  // flight (its token died with node 2); the fanned-out suspicion lets it
  // cut over at once instead of starving into a 911 round.
  SessionConfig slow;
  slow.token_hold = millis(50);
  MuxCluster c({1, 2}, {SessionConfig{}, slow});
  ASSERT_TRUE(c.form({1, 2}));
  SessionNode& a = c.ring(1, 0);
  SessionNode& b = c.ring(1, 1);
  ASSERT_TRUE(c.run_until(
      [&] { return a.holds_token() && c.ring(2, 1).holds_token(); },
      seconds(5)));
  c.mux(2).set_enabled(false);
  c.net().set_node_up(2, false);
  ASSERT_TRUE(c.run_until(
      [&] { return !a.view().has(2) && !b.view().has(2); }, seconds(2)));

  EXPECT_EQ(a.stats().removals.value(), 1u);
  EXPECT_EQ(suspect_removals(a), 0u) << "own failure counted as a suspicion";
  EXPECT_EQ(b.stats().removals.value(), 1u);
  EXPECT_EQ(suspect_removals(b), 1u) << "sibling ignored the fan-out";
  EXPECT_EQ(b.stats().starvations.value(), 0u);
}

}  // namespace
}  // namespace raincore
