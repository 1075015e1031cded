// E16 — elastic resharding: resize 4 -> 8 shards under sustained load.
//
// The harness is the durability-chaos cluster (per-shard WAL + snapshot
// stores, one-outstanding-op-per-slot clients whose acks require both the
// agreed apply and a durable journal record) with the fault schedule turned
// off: the only "event" is the live migration itself. At resize_at the
// cluster is asked to grow K=4 -> K=8 while every client keeps issuing
// puts/erases; the versioned router serves the whole window from
// old-or-new owner with at most a bounded redirect, so the resize must be
// invisible except as a latency blip.
//
// Reported: issue->ack latency split into the steady-state population and
// the ops that overlapped the migration window, plus the window length
// itself (first to last observation of an open routing window).
//
// Exit gates (deterministic sim: a regression is a code change, not noise):
//   - the resize completes (every node lands on the K=8 table);
//   - ZERO violations from the convergence/ownership/durability oracles,
//     zero acked-write losses, zero phantom resurrections;
//   - ZERO failed client ops: with no faults injected, no op may time out
//     (voided_ops == 0) — the freeze/forward window may delay an op but
//     never drop it;
//   - bounded p99 blip: migration-window p99 <= kBlipFactor x steady-state
//     p99 (the bound documented in README "Resizing a live cluster").
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "testing/durability_chaos.h"

using namespace raincore;
using raincore::bench::print_banner;

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kShardsFrom = 4;
constexpr std::size_t kShardsTo = 8;
constexpr std::uint64_t kSeed = 11;
const Time kResizeAt = millis(1500);
const Time kRunFor = millis(6000);

// Documented blip bound (README "Resizing a live cluster"): ops that
// overlap the migration window may see at most this factor over the
// steady-state p99 before the resize counts as a service interruption.
constexpr double kBlipFactor = 5.0;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  print_banner("Raincore bench E16: elastic resharding under load",
               "live 4 -> 8 shard resize, zero failed ops, bounded p99 blip");

  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("raincore_bench_reshard_" + std::to_string(::getpid()));
  fs::create_directories(root);

  testing::ChaosConfig ccfg;
  ccfg.seed = kSeed;
  // No background storm: push the first scheduled fault far past the end of
  // the run so the migration is the only disturbance.
  ccfg.mean_gap = seconds(10000);
  ccfg.mean_duration = millis(1);

  testing::DurabilityConfig dcfg;
  dcfg.n_shards = kShardsFrom;
  dcfg.slots_per_node = 6;
  // fsync per append: the ack gate requires the journal record durable, and
  // after the resize 24 slots spread over 8 shards leave some shards too
  // quiet to ever reach a batched-fsync boundary within the op timeout.
  dcfg.storage.fsync_every = 1;
  dcfg.storage.snapshot_every = 64;
  dcfg.resize_to = kShardsTo;
  dcfg.resize_at = kResizeAt;

  net::SimNetConfig ncfg;
  ncfg.seed = kSeed ^ 0x9e3779b97f4a7c15ULL;
  transport::TransportConfig tcfg;
  tcfg.adaptive = true;

  testing::DurabilityChaosCluster cluster(testing::node_ids(kNodes),
                                          root.string(), ccfg, dcfg, {}, ncfg,
                                          tcfg);
  bool booted = cluster.bootstrap();
  if (booted) {
    cluster.run_chaos(kRunFor);
    cluster.heal_and_check(millis(30000));
  }

  const auto& steady = cluster.ack_latencies_steady_ms();
  const auto& mig = cluster.ack_latencies_migration_ms();
  const double steady_p50 = percentile(steady, 0.5);
  const double steady_p99 = percentile(steady, 0.99);
  const double mig_p50 = percentile(mig, 0.5);
  const double mig_p99 = percentile(mig, 0.99);
  const double blip = steady_p99 > 0.0 ? mig_p99 / steady_p99 : 0.0;
  const double window_ms =
      cluster.migration_last_open() > cluster.migration_first_open()
          ? to_millis(cluster.migration_last_open() -
                      cluster.migration_first_open())
          : 0.0;

  std::printf("\n%zu nodes, K=%zu -> K=%zu at t=%.0f ms, %.0f ms of load\n",
              kNodes, kShardsFrom, kShardsTo, to_millis(kResizeAt),
              to_millis(kRunFor));
  std::printf("acked ops: %llu  (steady %zu, migration-window %zu)\n",
              static_cast<unsigned long long>(cluster.acked_ops()),
              steady.size(), mig.size());
  std::printf("voided (timed-out) ops: %llu\n",
              static_cast<unsigned long long>(cluster.voided_ops()));
  std::printf("migration window: %.1f ms (epoch %llu, final K=%zu)\n",
              window_ms,
              static_cast<unsigned long long>(cluster.final_epoch()),
              cluster.final_shard_count());
  std::printf("\n%18s | %10s %10s\n", "population", "p50 (ms)", "p99 (ms)");
  std::printf("-----------------------------------------\n");
  std::printf("%18s | %10.2f %10.2f\n", "steady-state", steady_p50,
              steady_p99);
  std::printf("%18s | %10.2f %10.2f\n", "migration window", mig_p50, mig_p99);
  std::printf("\np99 blip: %.2fx steady state (bound: %.1fx)\n", blip,
              kBlipFactor);

  bench::JsonReport report("reshard");
  report.param("nodes", static_cast<double>(kNodes));
  report.param("shards_from", static_cast<double>(kShardsFrom));
  report.param("shards_to", static_cast<double>(kShardsTo));
  report.param("run_ms", to_millis(kRunFor));
  report.param("resize_at_ms", to_millis(kResizeAt));
  report.param("blip_bound_factor", kBlipFactor);
  JsonValue row = bench::JsonReport::row("resize-4-to-8");
  row.set("acked_ops",
          JsonValue::number(static_cast<double>(cluster.acked_ops())));
  row.set("voided_ops",
          JsonValue::number(static_cast<double>(cluster.voided_ops())));
  row.set("acked_lost",
          JsonValue::number(static_cast<double>(cluster.acked_lost())));
  row.set("phantom_resurrections",
          JsonValue::number(
              static_cast<double>(cluster.phantom_resurrections())));
  row.set("migration_window_ms", JsonValue::number(window_ms));
  row.set("final_epoch",
          JsonValue::number(static_cast<double>(cluster.final_epoch())));
  row.set("final_shards",
          JsonValue::number(static_cast<double>(cluster.final_shard_count())));
  row.set("steady_p50_ms", JsonValue::number(steady_p50));
  row.set("steady_p99_ms", JsonValue::number(steady_p99));
  row.set("migration_p50_ms", JsonValue::number(mig_p50));
  row.set("migration_p99_ms", JsonValue::number(mig_p99));
  row.set("p99_blip_factor", JsonValue::number(blip));
  row.set("resize_completed", JsonValue::boolean(cluster.resize_completed()));
  report.add(std::move(row));
  report.set_metrics(cluster.metrics_snapshot());
  bench::maybe_write_report(report, bench::json_path_from_args(argc, argv));

  std::error_code ec;
  fs::remove_all(root, ec);

  bool fail = false;
  if (!booted) {
    std::fprintf(stderr, "FAIL: cluster failed to bootstrap\n");
    fail = true;
  }
  if (!cluster.resize_completed()) {
    std::fprintf(stderr, "FAIL: resize did not complete (final K=%zu)\n",
                 cluster.final_shard_count());
    fail = true;
  }
  if (!cluster.violations().empty()) {
    std::fprintf(stderr, "FAIL: %zu oracle violations:\n%s",
                 cluster.violations().size(),
                 cluster.failure_report().c_str());
    fail = true;
  }
  if (cluster.acked_lost() != 0 || cluster.phantom_resurrections() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu acked writes lost, %llu phantom resurrections\n",
                 static_cast<unsigned long long>(cluster.acked_lost()),
                 static_cast<unsigned long long>(
                     cluster.phantom_resurrections()));
    fail = true;
  }
  if (cluster.voided_ops() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu client ops timed out during a fault-free "
                 "resize\n",
                 static_cast<unsigned long long>(cluster.voided_ops()));
    fail = true;
  }
  if (mig.empty()) {
    std::fprintf(stderr,
                 "FAIL: no acked op overlapped the migration window — the "
                 "resize never ran under load\n");
    fail = true;
  }
  if (steady_p99 > 0.0 && blip > kBlipFactor) {
    std::fprintf(stderr, "FAIL: p99 blip %.2fx exceeds the %.1fx bound\n",
                 blip, kBlipFactor);
    fail = true;
  }
  return fail ? 1 : 0;
}
