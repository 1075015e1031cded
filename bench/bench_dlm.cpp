// E10 — Distributed Data Service performance: lock grant latency and
// replicated-map operation throughput over the token ring.
//
// Not a table in the paper, but the §2.7 lock manager and the shared-state
// service are what Rainwall's control plane runs on; these numbers bound
// the control-plane rates used in E3/E4 (e.g. connection-table updates per
// second as a function of the token interval).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "bench/util/gc_harness.h"
#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "testing/cluster.h"

using namespace raincore;
using raincore::bench::print_banner;

namespace {

/// A lock manager and a replicated map on one channel mux over a node's
/// ring.
struct Services {
  explicit Services(session::SessionNode& ring)
      : channels(ring), locks(channels, 1), map(channels, 2) {}
  data::ChannelMux channels;
  data::LockManager locks;
  data::ReplicatedMap map;
};

using Nodes = std::map<NodeId, std::unique_ptr<Services>>;

session::SessionConfig with_hold(Time hold) {
  session::SessionConfig cfg;
  cfg.token_hold = hold;
  return cfg;
}

Nodes services_on(testing::Cluster& c) {
  Nodes out;
  for (NodeId id : c.ids()) out[id] = std::make_unique<Services>(c.node(id));
  return out;
}

/// Node 1 founds the ring and the rest join through it; formation runs a
/// fixed 5 s. Exits the bench if the ring did not form.
void form(testing::Cluster& c) {
  c.bootstrap_via_join();
  c.run(seconds(5));
  if (!c.converged(c.ids())) {
    std::fprintf(stderr, "FATAL: the %zu-node ring did not form in 5 s\n",
                 c.ids().size());
    std::exit(1);
  }
}

void lock_latency(std::size_t n, Time hold) {
  testing::Cluster c(testing::node_ids(n), with_hold(hold));
  Nodes nodes = services_on(c);
  form(c);
  Histogram uncontended, handoff;

  // Uncontended: acquire+release a fresh lock, measure request→grant.
  for (int i = 0; i < 30; ++i) {
    NodeId at = c.ids()[i % n];
    std::string name = "u" + std::to_string(i);
    Time t0 = c.net().now();
    bool done = false;
    nodes[at]->locks.acquire(name, [&](const std::string&) {
      uncontended.record_time(c.net().now() - t0);
      done = true;
    });
    while (!done) c.net().loop().run_for(millis(5));
    nodes[at]->locks.release(name);
    c.net().loop().run_for(millis(20));
  }

  // Handoff under contention: all nodes queue on one lock; measure the
  // release→next-grant gap.
  int grants = 0;
  Time last_grant = -1;
  for (NodeId id : c.ids()) {
    nodes[id]->locks.acquire("hot", [&, id](const std::string&) {
      Time now = c.net().now();
      if (last_grant >= 0) handoff.record_time(now - last_grant);
      last_grant = now;
      ++grants;
      nodes[id]->locks.release("hot");
    });
  }
  c.net().loop().run_for(seconds(10));

  std::printf("%4zu %10lld ms | %16.2f %16.2f | %8d\n", n,
              static_cast<long long>(hold / kNanosPerMilli),
              uncontended.mean() / 1e6, handoff.mean() / 1e6, grants);
}

void map_throughput(std::size_t n, Time hold) {
  testing::Cluster c(testing::node_ids(n), with_hold(hold));
  Nodes nodes = services_on(c);
  form(c);
  // Count operations as they are *applied* at node 1 (post-circulation).
  std::uint64_t applied = 0;
  nodes[1]->map.set_change_handler(
      [&applied](const std::string&, const std::optional<std::string>&, NodeId) {
        ++applied;
      });
  // Saturate: every node keeps its outbound queue full for 5 sim-seconds.
  const Time dur = seconds(5);
  Time end = c.net().now() + dur;
  std::uint64_t issued = 0;
  while (c.net().now() < end) {
    for (NodeId id : c.ids()) {
      // Keep the queue topped up to the per-visit flow-control limit.
      while (c.node(id).pending_out() < 128) {
        nodes[id]->map.put("k" + std::to_string(issued % 512),
                           std::string(32, 'v'));
        ++issued;
      }
    }
    c.net().loop().run_for(millis(1));
  }
  std::printf("%4zu %10lld ms | %14llu %17.0f | %12zu\n", n,
              static_cast<long long>(hold / kNanosPerMilli),
              static_cast<unsigned long long>(applied),
              static_cast<double>(applied) / to_seconds(dur),
              nodes[1]->map.size());
}

}  // namespace

int main() {
  print_banner("Raincore bench E10: Distributed Data Service",
               "IPPS'01 paper §2.7 lock manager / Data Service substrate");

  std::printf("\nLock grant latency (request -> granted):\n");
  std::printf("%4s %13s | %16s %16s | %8s\n", "N", "token hold",
              "uncontended ms", "handoff ms", "grants");
  std::printf("----------------------------------------------------------------\n");
  for (std::size_t n : {2, 4, 8}) {
    for (Time hold : {millis(1), millis(5)}) lock_latency(n, hold);
  }

  std::printf("\nReplicated-map write throughput (32-byte values, all nodes\n");
  std::printf("writing, 5 s):\n");
  std::printf("%4s %13s | %14s %17s | %12s\n", "N", "token hold", "ops applied",
              "ops/s sustained", "final keys");
  std::printf("----------------------------------------------------------------\n");
  for (std::size_t n : {2, 4, 8}) {
    for (Time hold : {millis(1), millis(5)}) map_throughput(n, hold);
  }

  std::printf("\nExpected shape: uncontended grant ~ one token roundtrip\n");
  std::printf("(N*hold); contended handoff ~ one roundtrip per grant (token-\n");
  std::printf("order fairness); map throughput ~ max_msgs_per_visit * visit\n");
  std::printf("rate, so it *rises* as the hold interval shrinks.\n");
  return 0;
}
