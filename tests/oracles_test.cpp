// The shared ring invariant checkers (testing/oracles.h) on crafted logs,
// small live clusters and a bare event loop — the cases a chaos sweep only
// reaches by luck.
#include "testing/oracles.h"

#include <gtest/gtest.h>

#include "tests/util/test_cluster.h"

namespace raincore::testing {
namespace {

struct Violations {
  std::vector<std::string> all;
  ViolationFn sink() {
    return [this](std::string v) { all.push_back(std::move(v)); };
  }
  bool has(const std::string& needle) const {
    for (const std::string& v : all) {
      if (v.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

std::string dump(const std::vector<std::string>& all) {
  std::string out;
  for (const std::string& v : all) out += "  " + v + "\n";
  return out;
}

// --- check_counter_order on crafted logs -----------------------------------

TEST(CounterOrder, FlagsDuplicateReorderedMisattributedAndUnparseable) {
  Violations dup;
  check_counter_order({{0, 1, "c:1:0:0"}, {0, 1, "c:1:0:1"}, {0, 1, "c:1:0:1"}},
                      "node 2", dup.sink());
  ASSERT_EQ(dup.all.size(), 1u) << dump(dup.all);
  EXPECT_EQ(dup.all[0],
            "delivery: node 2 saw duplicate/out-of-order counter 1 after 1 "
            "from origin 1 epoch 0");

  Violations reordered;
  check_counter_order({{0, 1, "c:1:0:2"}, {0, 1, "c:1:0:1"}}, "node 2",
                      reordered.sink());
  ASSERT_EQ(reordered.all.size(), 1u) << dump(reordered.all);
  EXPECT_TRUE(reordered.has("counter 1 after 2 from origin 1"));

  Violations misattributed;
  check_counter_order({{0, 3, "c:1:0:0"}}, "node 2", misattributed.sink());
  ASSERT_EQ(misattributed.all.size(), 1u) << dump(misattributed.all);
  EXPECT_EQ(misattributed.all[0],
            "delivery: node 2 got payload 'c:1:0:0' attributed to origin 3");

  Violations garbage;
  check_counter_order({{0, 1, "c:1:x"}}, "node 2", garbage.sink());
  ASSERT_EQ(garbage.all.size(), 1u) << dump(garbage.all);
  EXPECT_EQ(garbage.all[0],
            "delivery: node 2 received unparseable chaos payload 'c:1:x'");
}

TEST(CounterOrder, AcceptsGapsAndResetsUnderNewEpochs) {
  Violations v;
  check_counter_order(
      {
          {0, 1, "c:1:0:0"},
          {0, 1, "c:1:0:7"},  // a gap: a partition dropped 1..6
          {0, 1, "f:1:0"},    // not chaos traffic: skipped
          {0, 1, "c:1:1:0"},  // the origin restarted: its counters reset
          {1, 1, "c:1:1:0"},  // the receiver restarted: so do its records
          {1, 2, "c:2:0:4"},  // other origins are independent
      },
      "node 3", v.sink());
  EXPECT_TRUE(v.all.empty()) << dump(v.all);
}

// --- check_final_batch on a small TestCluster ------------------------------

class FinalBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    c_.found_all();
    ASSERT_TRUE(c_.run_until_converged({1, 2, 3}, seconds(10)));
  }

  /// The batch as each node delivered it; TestCluster logs carry no
  /// receiver incarnation.
  LogFn log_of() {
    return [this](NodeId id, std::size_t) -> const std::vector<Delivered>& {
      auto& out = logs_[id];
      out.clear();
      for (const Delivery& d : c_.delivered(id)) {
        out.push_back({0, d.origin, d.payload});
      }
      return out;
    };
  }

  std::vector<std::string> run(
      std::function<void(NodeId, const std::string&)> send) {
    FinalBatch batch;
    batch.per_node = 5;
    batch.timeout = millis(3000);
    batch.send = [&](NodeId id, std::size_t, const std::string& p) {
      send(id, p);
    };
    Violations v;
    check_final_batch(c_.net().loop(), c_.rings(), {1, 2, 3}, batch, log_of(),
                      v.sink());
    return v.all;
  }

  TestCluster c_{{1, 2, 3}};
  std::map<NodeId, std::vector<Delivered>> logs_;
};

TEST_F(FinalBatchTest, CleanBatchReportsNothing) {
  const auto v = run([&](NodeId id, const std::string& p) { c_.send(id, p); });
  EXPECT_TRUE(v.empty()) << dump(v);
}

TEST_F(FinalBatchTest, SkippedNodeIsReportedIncomplete) {
  Violations v;
  v.all = run([&](NodeId id, const std::string& p) {
    if (id != 2) c_.send(id, p);
  });
  EXPECT_TRUE(v.has("final batch: node 1 delivered 10 of 15 fresh messages"))
      << dump(v.all);
  EXPECT_TRUE(v.has("final batch: message 'f:2:0' delivered 0 times"))
      << dump(v.all);
}

TEST_F(FinalBatchTest, DoubledMessageIsReportedTwice) {
  Violations v;
  v.all = run([&](NodeId id, const std::string& p) {
    c_.send(id, p);
    if (p == "f:1:0") c_.send(id, p);
  });
  EXPECT_TRUE(v.has("final batch: message 'f:1:0' delivered 2 times"))
      << dump(v.all);
}

// --- check_membership ------------------------------------------------------

TEST(Membership, NamesStoppedNode) {
  TestCluster c({1, 2, 3});
  c.found_all();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  Violations clean;
  check_membership(c.rings(), {1, 2, 3}, clean.sink());
  EXPECT_TRUE(clean.all.empty()) << dump(clean.all);

  c.node(3).stop();
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(10)));
  Violations v;
  check_membership(c.rings(), {1, 2, 3}, v.sink());
  EXPECT_TRUE(v.has("membership: node 3 did not converge to the live set"))
      << dump(v.all);
}

// --- violation texts on a multi-ring table ---------------------------------

TEST(MultiRingTable, ViolationTextsNameTheRing) {
  net::SimNetwork net;
  session::SessionConfig cfg;
  cfg.eligible = {1, 2, 3};
  std::vector<std::unique_ptr<session::SessionMux>> muxes;
  RingTable rings;
  std::map<std::pair<NodeId, std::size_t>, std::vector<Delivered>> logs;
  for (NodeId id : cfg.eligible) {
    muxes.push_back(
        std::make_unique<session::SessionMux>(net.add_node(id), cfg.transport));
    for (std::size_t r = 0; r < 2; ++r) {
      session::SessionConfig rcfg = cfg;
      rcfg.metrics_prefix = "ring" + std::to_string(r) + ".";
      auto& ring =
          muxes.back()->create_ring(static_cast<transport::MuxGroup>(r), rcfg);
      ring.set_deliver_handler([&logs, id, r](NodeId origin, const Slice& p,
                                              session::Ordering) {
        logs[{id, r}].push_back({0, origin, std::string(p.begin(), p.end())});
      });
      rings[id].push_back(&ring);
    }
  }
  for (auto& [id, node_rings] : rings) {
    for (auto* ring : node_rings) ring->found();
  }
  ASSERT_TRUE(run_until(net.loop(), seconds(10),
                        [&] { return rings_converged(rings, {1, 2, 3}); }));
  LogFn log_of = [&logs](NodeId id,
                         std::size_t r) -> const std::vector<Delivered>& {
    return logs[{id, r}];
  };

  // Node 2 sends nothing on ring 1.
  FinalBatch batch;
  batch.per_node = 2;
  batch.timeout = millis(2000);
  batch.send = [&](NodeId id, std::size_t r, const std::string& p) {
    if (id != 2 || r != 1) rings.at(id)[r]->multicast(Bytes(p.begin(), p.end()));
  };
  Violations v;
  check_final_batch(net.loop(), rings, {1, 2, 3}, batch, log_of, v.sink());
  EXPECT_TRUE(v.has("final batch: node 1 ring 1 delivered 4 of 6 fresh messages"))
      << dump(v.all);
  EXPECT_TRUE(v.has("final batch: message 'f:2:1:0' delivered 0 times"))
      << dump(v.all);
  EXPECT_FALSE(v.has("ring 0")) << dump(v.all);

  logs[{2, 1}].push_back({0, 1, "c:1:0:3"});
  logs[{2, 1}].push_back({0, 1, "c:1:0:3"});
  rings.at(3)[1]->stop();
  Violations w;
  check_counter_order(rings, log_of, w.sink());
  check_membership(rings, {1, 2, 3}, w.sink());
  EXPECT_TRUE(w.has("delivery: node 2 ring 1 saw duplicate/out-of-order"))
      << dump(w.all);
  EXPECT_TRUE(w.has("membership: node 3 ring 1 did not converge"))
      << dump(w.all);
  EXPECT_FALSE(w.has("ring 0")) << dump(w.all);
}

// --- run_until_stable on a bare event loop ---------------------------------

TEST(RunUntilStable, ReturnsAfter300msOfContinuousTruth) {
  net::EventLoop loop;
  EXPECT_TRUE(run_until_stable(loop, seconds(1), [] { return true; }));
  EXPECT_EQ(loop.now(), millis(300));
}

TEST(RunUntilStable, FalseCheckRestartsTheWindow) {
  net::EventLoop loop;
  // True at every 10 ms check except t = 100 ms: the window starts over at
  // 110 ms and closes 300 ms later.
  EXPECT_TRUE(run_until_stable(loop, seconds(1),
                               [&] { return loop.now() != millis(100); }));
  EXPECT_EQ(loop.now(), millis(410));

  // Flapping every 200 ms never holds for 300 ms: false at the deadline.
  net::EventLoop flap;
  EXPECT_FALSE(run_until_stable(flap, seconds(1), [&] {
    return (flap.now() / millis(200)) % 2 == 0;
  }));
  EXPECT_EQ(flap.now(), seconds(1));
}

}  // namespace
}  // namespace raincore::testing
