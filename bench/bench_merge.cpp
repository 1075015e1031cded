// E11 — §2.4 group merge convergence.
//
// Paper claim: after a partition heals, the BODYODOR discovery plus the
// TBM merge protocol unify the sub-groups, and "by using the group ID
// ordering, the eventual merge among all of them can be completed without
// deadlocks." Measures the time from partition heal to full membership
// agreement, swept over the number of sub-groups and the BODYODOR period.
#include <cstdio>

#include "bench/util/gc_harness.h"
#include "testing/cluster.h"

using namespace raincore;
using raincore::bench::print_banner;
using raincore::testing::Cluster;

namespace {

Time run_merge(std::size_t n_nodes, std::size_t n_groups, Time bodyodor,
               std::uint64_t seed) {
  net::SimNetConfig ncfg;
  ncfg.seed = seed;
  session::SessionConfig scfg;
  scfg.bodyodor_interval = bodyodor;
  const std::vector<NodeId> ids = raincore::testing::node_ids(n_nodes);
  Cluster c(ids, scfg, ncfg);
  c.bootstrap_via_join();
  if (!c.run_until_converged(ids, seconds(30))) return -1;

  // Partition into n_groups contiguous slices and let them stabilise.
  std::vector<std::vector<NodeId>> groups(n_groups);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[i * n_groups / ids.size()].push_back(ids[i]);
  }
  c.net().partition(groups);
  c.run(seconds(8));

  // Heal and measure time to full agreement.
  c.net().heal_partition();
  Time start = c.net().now();
  if (!c.run_until_converged(ids, seconds(120))) return -1;
  return c.net().now() - start;
}

}  // namespace

int main() {
  print_banner("Raincore bench E11: split-brain merge convergence",
               "IPPS'01 paper §2.4 (discovery + deadlock-free TBM merge)");

  std::printf("\nTime from partition heal to full membership agreement\n");
  std::printf("(12 nodes, 3 trials per configuration, mean / worst):\n\n");
  std::printf("%10s %16s | %12s %12s\n", "subgroups", "BODYODOR period",
              "mean (s)", "worst (s)");
  std::printf("-------------------------------------------------------\n");

  for (std::size_t n_groups : {2, 3, 4, 6}) {
    for (Time bo : {millis(250), millis(500), millis(1000)}) {
      Histogram h;
      bool ok = true;
      for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
        Time t = run_merge(12, n_groups, bo, seed);
        if (t < 0) {
          ok = false;
          break;
        }
        h.record_time(t);
      }
      if (!ok) {
        std::printf("%10zu %13lld ms | %12s %12s\n", n_groups,
                    static_cast<long long>(bo / kNanosPerMilli), "FAILED",
                    "FAILED");
        continue;
      }
      std::printf("%10zu %13lld ms | %12.2f %12.2f\n", n_groups,
                  static_cast<long long>(bo / kNanosPerMilli),
                  h.mean() / 1e9, h.max() / 1e9);
    }
  }

  std::printf("\nExpected shape: merges complete without deadlock for any\n");
  std::printf("number of sub-groups; convergence is a few BODYODOR periods\n");
  std::printf("(discovery) plus one TBM handshake per absorbed group, so it\n");
  std::printf("grows mildly with the sub-group count and shrinks with the\n");
  std::printf("advert frequency.\n");
  return 0;
}
