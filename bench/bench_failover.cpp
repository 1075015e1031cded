// E4 — §3.2 fail-over time.
//
// Paper claim: "The fail-over time of Rainwall is under two seconds. ...
// the client, instead of losing the connection, will only see about a
// 2-second hiccup in the traffic flow, before it fully resumes."
//
// A client flow runs through a 2-gateway cluster; the owning gateway's
// cable is pulled mid-flow; the measured gap is the longest run of
// depressed aggregate throughput after the failure. Swept over the token
// hold interval, which dominates detection latency.
//
// Part 2 sweeps the failure *detector* itself: a 5-node cluster under
// crash/restart cycles and uniform base packet loss, fixed-RTO vs adaptive
// (RTT estimation + backoff with jitter + link-health steering +
// probation), same seeds per cell. Reported per cell: false removals
// (oracle: node removed while its process was alive), true removals, and
// crash-to-first-removal detection latency.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/rainwall/rainwall_cluster.h"
#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "testing/chaos.h"

using namespace raincore;
using namespace raincore::apps;
using raincore::bench::print_banner;

namespace {

struct Result {
  Time gap;
  double before_mbps;
  double after_mbps;
};

Result run_failover(Time token_hold, std::uint64_t seed) {
  RainwallClusterConfig cfg;
  cfg.seed = seed;
  cfg.node.session.token_hold = token_hold;
  cfg.node.vip_pool = {"10.1.0.1", "10.1.0.2", "10.1.0.3", "10.1.0.4"};
  // Long-lived download flows (the paper's scenario is a client downloading
  // a file through the firewall when the cable is pulled), ~80 Mb/s steady
  // — under one gateway's capacity so full recovery is possible.
  cfg.traffic.arrivals_per_sec = 50;
  cfg.traffic.mean_duration_s = 12.0;
  cfg.traffic.mean_rate_bps = 1.3e5;

  RainwallCluster c({1, 2}, cfg);
  if (!c.start()) return {seconds(99), 0, 0};
  c.run(seconds(15));
  double before = c.mean_mbps(c.now() - seconds(4), c.now());

  Time fail_at = c.now();
  c.fail_node(2);
  c.run(seconds(8));
  double after = c.mean_mbps(fail_at + seconds(4), c.now());

  Result r;
  // The "hiccup": longest stretch after the cut with aggregate throughput
  // below 75% of the pre-failure level (reassigned flows not yet resumed).
  r.gap = c.longest_gap_below(before * 0.75, fail_at);
  r.before_mbps = before;
  r.after_mbps = after;
  return r;
}

struct DetectorResult {
  std::uint64_t false_removals = 0;
  std::uint64_t true_removals = 0;
  std::uint64_t detections = 0;
  double detect_sum_ms = 0.0;
  double detect_max_ms = 0.0;
};

// One crash/restart soak: 5 nodes, crash-only fault schedule layered over a
// uniform base loss rate, chosen detector. Oracle counters come from the
// chaos harness (ground-truth process liveness).
DetectorResult run_detector_round(double loss, bool adaptive,
                                  std::uint64_t seed) {
  testing::ChaosConfig ccfg;
  ccfg.seed = seed;
  ccfg.mean_gap = millis(150);
  ccfg.mean_duration = millis(350);
  for (double& w : ccfg.weights) w = 0.0;
  ccfg.weights[static_cast<std::size_t>(testing::FaultClass::kCrashRestart)] =
      1.0;
  raincore::net::SimNetConfig ncfg;
  ncfg.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  ncfg.default_drop = loss;
  transport::TransportConfig tcfg;
  tcfg.adaptive = adaptive;
  testing::ChaosCluster cluster({1, 2, 3, 4, 5}, ccfg, {}, ncfg, tcfg);
  DetectorResult r;
  if (!cluster.bootstrap()) return r;
  cluster.run_chaos(millis(4000));
  cluster.heal_and_check();
  r.false_removals = cluster.false_removals();
  r.true_removals = cluster.true_removals();
  metrics::Snapshot snap = cluster.metrics_snapshot();
  auto it = snap.histograms.find("session.detection_latency_ns");
  if (it != snap.histograms.end() && it->second.count > 0) {
    r.detections = it->second.count;
    r.detect_sum_ms = it->second.sum / 1e6;
    r.detect_max_ms = it->second.max / 1e6;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::json_path_from_args(argc, argv);
  bench::JsonReport report("bench_failover");
  print_banner("Raincore bench E4: Rainwall fail-over time",
               "IPPS'01 paper §3.2 (fail-over under two seconds)");

  std::printf("\nTwo gateways, ~80 Mb/s of long-lived download flows; at t the\n");
  std::printf("serving gateway's cable is pulled. Gap = longest stretch with\n");
  std::printf("aggregate throughput below 75%% of the pre-failure level.\n\n");
  std::printf("%14s | %12s %14s %14s | %12s\n", "token hold", "gap (ms)",
              "before Mb/s", "after Mb/s", "paper bound");
  std::printf("------------------------------------------------------------"
              "----------------\n");

  for (Time hold : {millis(5), millis(20), millis(50), millis(100)}) {
    // Three seeds per configuration; report the worst gap.
    Time worst = 0;
    double before = 0, after = 0;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      Result r = run_failover(hold, seed);
      worst = std::max(worst, r.gap);
      before = r.before_mbps;
      after = r.after_mbps;
    }
    std::printf("%11lld ms | %12.0f %14.1f %14.1f | %12s\n",
                static_cast<long long>(hold / kNanosPerMilli),
                to_millis(worst), before, after, "< 2000 ms");
    long long hold_ms = static_cast<long long>(hold / kNanosPerMilli);
    JsonValue row =
        bench::JsonReport::row("hold_" + std::to_string(hold_ms) + "ms");
    row.set("token_hold_ms", JsonValue::number(static_cast<double>(hold_ms)));
    row.set("gap_ms", JsonValue::number(to_millis(worst)));
    row.set("before_mbps", JsonValue::number(before));
    row.set("after_mbps", JsonValue::number(after));
    report.add(std::move(row));
  }

  std::printf("\nExpected shape (paper): traffic resumes on the surviving\n");
  std::printf("gateway well inside 2 s; the gap grows with the token interval\n");
  std::printf("(detection latency) but stays bounded.\n");

  std::printf("\nDetector sweep: 5 nodes, crash/restart cycles under uniform\n");
  std::printf("base packet loss, fixed-RTO vs adaptive detector, same seeds.\n\n");
  std::printf("%6s %9s | %9s %8s | %11s %11s\n", "loss", "detector",
              "false-rm", "true-rm", "mean-ms", "max-ms");
  std::printf("---------------------------------------------------------------\n");
  const std::vector<std::uint64_t> det_seeds = {101, 102, 103, 104, 105};
  for (double loss : {0.0, 0.02, 0.05, 0.10}) {
    for (bool adaptive : {false, true}) {
      DetectorResult agg;
      for (std::uint64_t seed : det_seeds) {
        DetectorResult r = run_detector_round(loss, adaptive, seed);
        agg.false_removals += r.false_removals;
        agg.true_removals += r.true_removals;
        agg.detections += r.detections;
        agg.detect_sum_ms += r.detect_sum_ms;
        agg.detect_max_ms = std::max(agg.detect_max_ms, r.detect_max_ms);
      }
      double mean_ms =
          agg.detections ? agg.detect_sum_ms / static_cast<double>(agg.detections)
                         : 0.0;
      std::printf("%5.0f%% %9s | %9llu %8llu | %11.1f %11.1f\n", loss * 100.0,
                  adaptive ? "adaptive" : "fixed",
                  static_cast<unsigned long long>(agg.false_removals),
                  static_cast<unsigned long long>(agg.true_removals), mean_ms,
                  agg.detect_max_ms);
      std::string name = "loss" + std::to_string(static_cast<int>(loss * 100)) +
                         (adaptive ? "_adaptive" : "_fixed");
      JsonValue row = bench::JsonReport::row(name);
      row.set("loss_pct", JsonValue::number(loss * 100.0));
      row.set("adaptive", JsonValue::number(adaptive ? 1.0 : 0.0));
      row.set("false_removals",
              JsonValue::number(static_cast<double>(agg.false_removals)));
      row.set("true_removals",
              JsonValue::number(static_cast<double>(agg.true_removals)));
      row.set("detections",
              JsonValue::number(static_cast<double>(agg.detections)));
      row.set("detect_mean_ms", JsonValue::number(mean_ms));
      row.set("detect_max_ms", JsonValue::number(agg.detect_max_ms));
      report.add(std::move(row));
    }
  }
  std::printf("\nExpected shape: at matched loss the adaptive detector removes\n");
  std::printf("fewer live nodes (lower false-rm) while detection latency stays\n");
  std::printf("within ~2x of the fixed-RTO bound.\n");
  bench::maybe_write_report(report, json_path);
  return 0;
}
