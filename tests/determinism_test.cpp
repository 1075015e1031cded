// End-to-end determinism: a full protocol scenario (bootstrap, traffic,
// failure, recovery, merge) replays bit-identically from the same seed —
// the property that makes every benchmark and failure test in this repo
// reproducible. It runs on both node shapes: one bare ring per node, and a
// two-ring sharded data plane serving a replicated map.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "data/shard_router.h"
#include "testing/cluster.h"

namespace raincore {
namespace {

using testing::Cluster;

enum class Shape { kOneRing, kPlane };

const char* name(Shape shape) {
  return shape == Shape::kOneRing ? "one ring" : "two-ring plane";
}

net::SimNetConfig lossy(std::uint64_t seed) {
  net::SimNetConfig ncfg;
  ncfg.seed = seed;
  ncfg.default_drop = 0.02;
  return ncfg;
}

/// Bootstrap by join, traffic, node 3 crashes; node 2's history.
std::string run_one_ring(std::uint64_t seed) {
  Cluster c({1, 2, 3, 4}, session::SessionConfig{}, lossy(seed));
  c.bootstrap_via_join();
  c.run(seconds(5));
  for (int i = 0; i < 10; ++i) {
    c.send(1 + (i % 4), "m" + std::to_string(i));
    c.run(millis(20));
  }
  c.net().set_node_up(3, false);
  c.node(3).stop();
  c.run(seconds(3));
  c.send(1, "post");
  c.run(seconds(2));

  std::ostringstream os;
  os << "view:";
  for (NodeId n : c.node(2).view().members) os << n << ",";
  os << " seq:" << c.node(2).last_copy().seq;
  os << " deliveries:";
  for (const auto& d : c.delivered(2)) {
    os << d.origin << ":" << d.payload << ";";
  }
  os << " rx:" << c.node(2).stats().tokens_received.value();
  os << " pkts:" << c.net().totals().pkts_sent.value();
  return os.str();
}

/// Found-all, map puts from every node, node 3 crashes and restarts; every
/// replica's partitions and the merged metrics.
std::string run_plane(std::uint64_t seed) {
  Cluster c({1, 2, 3, 4}, Cluster::Plane{2}, lossy(seed));
  std::map<NodeId, std::unique_ptr<data::ShardedMap>> maps;
  for (NodeId id : c.ids()) {
    maps[id] = std::make_unique<data::ShardedMap>(c.plane(id), 1);
  }
  c.found_all();
  c.run(seconds(5));
  for (int i = 0; i < 20; ++i) {
    maps.at(1 + (i % 4))->put("k" + std::to_string(i % 7),
                              "v" + std::to_string(i));
    c.run(millis(20));
  }
  c.crash(3);
  c.run(seconds(3));
  maps.at(1)->put("post", "crash");
  c.restart(3);
  c.run(seconds(5));

  std::ostringstream os;
  for (NodeId id : c.ids()) {
    os << "node " << id << ":";
    for (std::size_t s = 0; s < maps.at(id)->shard_count(); ++s) {
      for (const auto& [k, v] : maps.at(id)->shard(s).contents()) {
        os << s << "/" << k << "=" << v << ";";
      }
    }
  }
  os << " pkts:" << c.net().totals().pkts_sent.value() << "\n";
  os << c.metrics_snapshot().to_jsonl();
  return os.str();
}

std::string run_scenario(std::uint64_t seed, Shape shape) {
  return shape == Shape::kOneRing ? run_one_ring(seed) : run_plane(seed);
}

TEST(DeterminismTest, IdenticalSeedsReplayIdentically) {
  for (Shape shape : {Shape::kOneRing, Shape::kPlane}) {
    std::string a = run_scenario(12345, shape);
    std::string b = run_scenario(12345, shape);
    EXPECT_EQ(a, b) << name(shape) << ": simulation is not deterministic";
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  for (Shape shape : {Shape::kOneRing, Shape::kPlane}) {
    std::string a = run_scenario(12345, shape);
    std::string b = run_scenario(54321, shape);
    EXPECT_NE(a, b) << name(shape);
  }
}

}  // namespace
}  // namespace raincore
