// Self-tests of the benchmark's parts: the exact recorder, the open-loop
// timeline, the output checkers (each must catch an injected loss,
// duplicate and reorder) and kv-sim's seed determinism.
//   perfbench_selftest        (or: python3 perfbench/run.py --selftest)
#include <cstdio>
#include <random>

#include "checks.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void recorder_matches_sorted_reference() {
  std::mt19937_64 rng(11);
  std::vector<double> all;
  std::vector<Samples> per_thread(4);
  for (int i = 0; i < 5003; ++i) {
    const double v = static_cast<double>(rng() % 100000) / 7.0;
    all.push_back(v);
    per_thread[static_cast<std::size_t>(i) % 4].add(v);
  }
  Samples merged_set;
  for (auto& s : per_thread) merged_set.merge(s);
  std::vector<double> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  bool same = merged_set.count() == sorted.size();
  for (double q : {0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Reference: the smallest value with at least q·n values at or below.
    double ref = sorted.back();
    for (double x : sorted) {
      const auto at_or_below = static_cast<double>(
          std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
      if (at_or_below >= q * static_cast<double>(sorted.size())) {
        ref = x;
        break;
      }
    }
    same = same && merged_set.quantile(q) == ref;
  }
  expect(same, "merged per-thread percentiles equal a sorted reference");

  Samples thousand;
  for (int i = 0; i < 1000; ++i) thousand.add(i);
  expect(thousand.top_supported_quantile() == 0.99,
         "1000 samples support p99 (10 above) but not p99.9");
}

void timeline_does_not_drift() {
  Timeline tl;
  tl.t0 = 123456789;
  tl.rate = 150000;
  tl.sources = 16;
  // One hour of message 0..N of source 5: every due time is the exact
  // floor of its rational instant, and gaps stay within 1 ns of the period.
  const std::uint64_t per_hour = 3600ull * 150000 / 16;
  bool exact = true, gaps = true;
  Time prev = tl.due(5, 0);
  const double period = 1e9 * 16 / 150000.0;
  for (std::uint64_t i = 1; i <= per_hour; i += 997) {
    const Time d = tl.due(5, i);
    const __int128 g = static_cast<__int128>(i) * 16 + 5;
    exact = exact && d == tl.t0 + static_cast<Time>(g * 1000000000 / 150000);
    prev = tl.due(5, i - 1);
    const double gap = static_cast<double>(d - prev);
    gaps = gaps && std::abs(gap - period) < 1.0;
  }
  expect(exact, "due times over one hour equal the exact rational instants");
  expect(gaps, "consecutive due times stay within 1 ns of the period");
  const Time hour_end = tl.due(5, per_hour);
  const double ideal = static_cast<double>(tl.t0) +
                       (static_cast<double>(per_hour) * 16 + 5) * 1e9 / 150000.0;
  expect(std::abs(static_cast<double>(hour_end) - ideal) < 1.0,
         "after one hour the schedule is within 1 ns of the ideal instant");

  bool counts = true;
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t s = rng() % 16;
    const Time t = tl.t0 + static_cast<Time>(rng() % 50000000);
    std::uint64_t brute = 0;
    while (tl.due(s, brute) < t) ++brute;
    counts = counts && tl.count_before(s, t) == brute;
  }
  expect(counts, "count_before matches a brute-force count");
}

void checkers_catch_injected_faults() {
  auto run = [](std::vector<std::uint64_t> seq, std::size_t n) {
    SeqLog log;
    for (std::size_t p = 0; p < seq.size(); ++p) log.append(seq[p], Time(p));
    StreamViolations v;
    check_stream(std::vector<bool>(n, true), log.indices(), v);
    return v;
  };
  const StreamViolations clean = run({0, 1, 2, 3, 4, 5}, 6);
  expect(clean.total() == 0, "clean stream: no violation");
  const StreamViolations loss = run({0, 1, 2, 4, 5}, 6);
  expect(loss.lost == 1 && loss.total() == 1, "injected loss is caught");
  const StreamViolations dup = run({0, 1, 2, 2, 3, 4, 5}, 6);
  expect(dup.duplicated == 1 && dup.total() == 1, "injected duplicate is caught");
  const StreamViolations reorder = run({0, 1, 3, 2, 4, 5}, 6);
  expect(reorder.reordered == 1 && reorder.total() == 1,
         "injected reorder is caught");
  std::vector<bool> refused(6, true);
  refused[3] = false;
  SeqLog gap;
  for (std::uint64_t i : {0, 1, 2, 4, 5}) gap.append(i, 0);
  StreamViolations ok;
  check_stream(refused, gap.indices(), ok);
  expect(ok.total() == 0, "a refused message is not counted as lost");

  std::uint64_t a = kOrderSeed, b = kOrderSeed;
  a = order_step(order_step(a, 1, 0), 2, 0);
  b = order_step(order_step(b, 2, 0), 1, 0);
  expect(a != b, "ring order digest catches a cross-origin reorder");

  LockOracle lo;
  lo.granted("x", 1);
  lo.released("x", 1);
  lo.granted("x", 2);
  expect(lo.violations() == 0, "lock oracle: sequential holders pass");
  lo.granted("x", 3);
  expect(lo.violations() == 1, "lock oracle: a second holder is caught");

  PutLedger ledger(2);
  const std::uint32_t s0 = ledger.issue(1, 42);
  expect(ledger.valid_read(42, encode_value(42, 1, s0, 64)),
         "get check: a written value passes");
  expect(!ledger.valid_read(42, encode_value(42, 1, s0 + 1, 64)) &&
             !ledger.valid_read(43, encode_value(42, 1, s0, 64)),
         "get check: an unwritten or misplaced value is caught");

  std::map<std::string, std::string> r1{{"k", "v"}}, r2{{"k", "v"}},
      r3{{"k", "w"}};
  expect(replica_mismatches({&r1, &r2}) == 0 &&
             replica_mismatches({&r1, &r2, &r3}) == 1,
         "replica check catches a diverged replica");
}

void kv_sim_is_seed_deterministic() {
  KvSimShape shape;
  shape.warmup_ms = 200;
  shape.steady_ms = 300;
  shape.failover_ms = 400;
  const KvSimVirtual a = run_kv_sim_once(7, shape);
  const KvSimVirtual b = run_kv_sim_once(7, shape);
  const KvSimVirtual c = run_kv_sim_once(8, shape);
  expect(!a.put_ack_ns.empty() && a == b,
         "kv-sim: same seed gives bit-identical virtual metrics and counters");
  expect(!(a == c), "kv-sim: another seed gives different ones");
}

}  // namespace

int main() {
  recorder_matches_sorted_reference();
  timeline_does_not_drift();
  checkers_catch_injected_faults();
  kv_sim_is_seed_deterministic();
  std::printf("%s (%d failure%s)\n", g_failures ? "FAILED" : "all passed",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
