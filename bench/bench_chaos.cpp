// Chaos soak driver — robustness endurance runs.
//
// Repeatedly drives a full Raincore stack (session service + distributed
// lock manager + replicated map + virtual-IP manager) through long,
// randomized, seed-replayable fault schedules, healing after each round and
// asserting every protocol invariant checker. A violation prints the seed
// and the complete fault schedule so the failing round can be replayed
// exactly with `run_chaos_round(seed, ...)`.
//
// Usage: bench_chaos [rounds] [virtual-ms-per-round] [nodes] [base-seed]
//                    [--json=PATH] [--loss=P] [--adaptive]
//                    [--false-removal-budget=N]
// --loss layers a uniform base packet-loss probability P (0..1) on every
// link under the fault schedule; --adaptive switches the cluster from the
// fixed-RTO failure detector to the adaptive one (RTT estimation, backoff
// with jitter, link-health steering, probation). With
// --false-removal-budget the run exits non-zero if the oracle counts more
// than N removals of still-alive nodes across all rounds — the CI gate for
// lossy-link soaks.
// With --json the per-seed table is additionally emitted as a
// raincore.bench.v1 document: one result row per seed (faults, violations,
// removal-oracle outcomes) plus the merged final metrics snapshot, whose
// histograms are the exact bucket sums of every round's.
//
// Every value is checked before the first round: rounds in 1..1000000,
// virtual ms in 1..3600000, nodes in 2..64, any whole base seed, P in
// [0, 1) and N a whole number. A malformed value, an unknown flag or a
// fifth positional exits 2 with a message, so a typo in a sweep's command
// line cannot pass as a run of zero rounds.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "common/cli.h"
#include "common/log.h"
#include "testing/chaos.h"

using namespace raincore;

namespace {

[[noreturn]] void reject(const std::string& why) {
  std::fprintf(stderr, "bench_chaos: %s\n", why.c_str());
  std::exit(2);
}

/// All of `text` as a whole number in [lo, hi]; rejects anything else.
std::uint64_t whole(const char* what, const std::string& text,
                    std::uint64_t lo, std::uint64_t hi) {
  const auto v = cli::whole(text, lo, hi);
  if (!v) {
    reject(std::string(what) + " wants a whole number in " +
           std::to_string(lo) + ".." + std::to_string(hi) + ", got '" +
           text + "'");
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* lvl = std::getenv("RAINCORE_LOG")) {
    std::string s = lvl;
    if (s == "trace") raincore::set_log_level(raincore::LogLevel::kTrace);
    else if (s == "debug") raincore::set_log_level(raincore::LogLevel::kDebug);
    else if (s == "info") raincore::set_log_level(raincore::LogLevel::kInfo);
  }
  std::string json_path = bench::json_path_from_args(argc, argv);
  testing::ChaosProfile profile;
  long long false_removal_budget = -1;  // -1 = no gate
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--loss=", 0) == 0) {
      const auto p = cli::finite(a.substr(7));
      if (!p || *p < 0.0 || *p >= 1.0) {
        reject("--loss wants a probability in [0, 1), got '" + a.substr(7) +
               "'");
      }
      profile.base_loss = *p;
    } else if (a == "--adaptive") {
      profile.adaptive = true;
    } else if (a.rfind("--false-removal-budget=", 0) == 0) {
      false_removal_budget = static_cast<long long>(
          whole("--false-removal-budget", a.substr(23), 0, 1'000'000'000));
    } else if (a.rfind("--json=", 0) == 0) {
      if (a.size() == 7) reject("--json= needs a path");
    } else if (a.rfind("--", 0) == 0) {
      reject("unknown flag " + a);
    } else if (pos.size() == 4) {
      reject("unexpected argument '" + a + "'");
    } else {
      pos.push_back(a);
    }
  }
  const std::size_t rounds =
      pos.size() > 0 ? whole("rounds", pos[0], 1, 1'000'000) : 20;
  const long long per_round_ms =
      pos.size() > 1
          ? static_cast<long long>(whole("virtual-ms", pos[1], 1, 3'600'000))
          : 5000;
  const std::size_t nodes = pos.size() > 2 ? whole("nodes", pos[2], 2, 64) : 5;
  const std::uint64_t base_seed =
      pos.size() > 3
          ? whole("base-seed", pos[3], 0,
                  std::numeric_limits<std::uint64_t>::max())
          : 1000;

  bench::print_banner("Raincore chaos soak",
                      "randomized fault schedules + protocol invariant checks");
  std::printf("\n%zu rounds x %lld virtual ms of chaos, %zu nodes, seeds %llu..%llu\n",
              rounds, per_round_ms, nodes,
              static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(base_seed + rounds - 1));
  std::printf("base loss %.1f%%, detector: %s\n\n", profile.base_loss * 100.0,
              profile.adaptive ? "adaptive" : "fixed-RTO");
  std::printf("%8s %8s %10s %12s %8s %8s\n", "seed", "faults", "classes",
              "violations", "false-rm", "true-rm");
  std::printf("-----------------------------------------------------------\n");

  bench::JsonReport report("bench_chaos");
  report.param("rounds", static_cast<double>(rounds));
  report.param("virtual_ms_per_round", static_cast<double>(per_round_ms));
  report.param("nodes", static_cast<double>(nodes));
  report.param("base_seed", static_cast<double>(base_seed));
  report.param("base_loss", profile.base_loss);
  report.param("adaptive", profile.adaptive ? 1.0 : 0.0);

  metrics::Snapshot merged;
  std::size_t total_faults = 0;
  std::size_t total_violations = 0;
  std::uint64_t total_false_removals = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    std::uint64_t seed = base_seed + i;
    testing::ChaosRoundResult res =
        testing::run_chaos_round(seed, millis(per_round_ms), nodes, profile);
    total_faults += res.faults;
    total_violations += res.violations.size();
    total_false_removals += res.false_removals;
    std::printf("%8llu %8zu %7zu/%zu %12zu %8llu %8llu\n",
                static_cast<unsigned long long>(seed), res.faults,
                res.classes.size(),
                static_cast<std::size_t>(testing::FaultClass::kCount),
                res.violations.size(),
                static_cast<unsigned long long>(res.false_removals),
                static_cast<unsigned long long>(res.true_removals));
    JsonValue row = bench::JsonReport::row("seed_" + std::to_string(seed));
    row.set("seed", JsonValue::number(static_cast<double>(seed)));
    row.set("faults", JsonValue::number(static_cast<double>(res.faults)));
    row.set("fault_classes",
            JsonValue::number(static_cast<double>(res.classes.size())));
    row.set("violations",
            JsonValue::number(static_cast<double>(res.violations.size())));
    row.set("false_removals",
            JsonValue::number(static_cast<double>(res.false_removals)));
    row.set("true_removals",
            JsonValue::number(static_cast<double>(res.true_removals)));
    report.add(std::move(row));
    merged.merge(res.metrics);
    if (!res.violations.empty()) {
      std::printf("\nINVARIANT VIOLATIONS (replay with seed %llu):\n",
                  static_cast<unsigned long long>(seed));
      for (const std::string& v : res.violations) {
        std::printf("  %s\n", v.c_str());
      }
      std::printf("%s\n", res.report.c_str());
    }
  }

  report.set_metrics(merged);
  bench::maybe_write_report(report, json_path);

  std::printf("\nTotal: %zu faults injected, %zu invariant violations, "
              "%llu false removals\n",
              total_faults, total_violations,
              static_cast<unsigned long long>(total_false_removals));
  if (false_removal_budget >= 0 &&
      total_false_removals > static_cast<std::uint64_t>(false_removal_budget)) {
    std::printf("FAIL: false removals %llu exceed budget %lld\n",
                static_cast<unsigned long long>(total_false_removals),
                false_removal_budget);
    return 1;
  }
  return total_violations == 0 ? 0 : 1;
}
