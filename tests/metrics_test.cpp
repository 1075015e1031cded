// Observability layer unit tests: registry naming/lookup, snapshot
// diff/merge algebra (exact for histogram buckets), bucketed percentile
// accuracy, JSON(L) round-trips and validation, histogram determinism (the
// property the chaos seed-replay suite depends on), and concurrent
// recording against snapshots (run under TSAN by scripts/ci_check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/stats.h"

using namespace raincore;
using metrics::HistStat;
using metrics::Registry;
using metrics::Snapshot;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("transport.sends");
  Counter& b = reg.counter("transport.sends");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g1 = reg.gauge("ring.size");
  Gauge& g2 = reg.gauge("ring.size");
  EXPECT_EQ(&g1, &g2);

  Histogram& h1 = reg.histogram("latency_ns");
  Histogram& h2 = reg.histogram("latency_ns");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, InstrumentsOfDifferentKindsShareNamespace) {
  Registry reg;
  reg.counter("x");
  reg.gauge("y");
  reg.histogram("z");
  EXPECT_TRUE(reg.has("x"));
  EXPECT_TRUE(reg.has("y"));
  EXPECT_TRUE(reg.has("z"));
  EXPECT_FALSE(reg.has("w"));
  EXPECT_EQ(reg.instrument_count(), 3u);
}

TEST(MetricsRegistry, ReferencesStayValidAcrossLaterRegistrations) {
  Registry reg;
  Counter& first = reg.counter("a.first");
  // A std::map-backed registry must not invalidate references on growth.
  for (int i = 0; i < 200; ++i) {
    reg.counter("a.growth." + std::to_string(i)).inc();
  }
  first.inc(7);
  EXPECT_EQ(reg.counter("a.first").value(), 7u);
  EXPECT_EQ(reg.instrument_count(), 201u);
}

TEST(MetricsRegistry, ResetClearsValuesButKeepsInstruments) {
  Registry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(2.5);
  reg.histogram("h").record(10.0);
  reg.reset();
  EXPECT_TRUE(reg.has("c"));
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(reg.instrument_count(), 3u);
}

TEST(MetricsRegistry, PrefixNamespacesInstrumentsPerInstance) {
  // The multi-session runtime gives every ring its own Registry with a
  // name prefix ("ring0.", "shard2.", ...) so instruments from K rings on
  // one node never collide when the node merges snapshots for export.
  Registry plain;
  Registry r0("ring0.");
  Registry r1("ring1.");

  Counter& c0 = r0.counter("session.token.received");
  Counter& c1 = r1.counter("session.token.received");
  EXPECT_NE(&c0, &c1);
  c0.inc(3);
  c1.inc(8);
  EXPECT_EQ(r0.counter("session.token.received").value(), 3u);
  EXPECT_EQ(r1.counter("session.token.received").value(), 8u);

  // Lookups speak the local (unprefixed) name, like counter() does;
  // snapshots export the full prefixed name.
  EXPECT_TRUE(r0.has("session.token.received"));
  EXPECT_FALSE(r0.has("ring1.session.token.received"));
  Snapshot s = plain.snapshot();
  s.merge(r0.snapshot());
  s.merge(r1.snapshot());
  EXPECT_EQ(s.counters.at("ring0.session.token.received"), 3u);
  EXPECT_EQ(s.counters.at("ring1.session.token.received"), 8u);
  EXPECT_EQ(s.counters.count("session.token.received"), 0u);

  // Same prefix + same name is still one instrument.
  EXPECT_EQ(&r0.counter("session.token.received"), &c0);
}

TEST(MetricsRegistry, PrefixedHistogramSeedsFollowFullName) {
  // Equal-prefixed registries fed the same stream snapshot identically:
  // nothing in a histogram depends on anything but its record stream.
  Registry a("ringX."), b("ringX.");
  for (int i = 0; i < 4000; ++i) {
    a.histogram("lat").record(i);
    b.histogram("lat").record(i);
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

// ------------------------------------------------------- snapshot algebra

TEST(MetricsSnapshot, DiffSubtractsCountersAndHistCounts) {
  Registry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h");
  c.inc(10);
  h.record(5.0);
  Snapshot before = reg.snapshot();
  c.inc(32);
  h.record(7.0);
  h.record(9.0);
  Snapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("c"), 32u);
  EXPECT_EQ(delta.histograms.at("h").count, 2u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("h").sum, 16.0);
}

TEST(MetricsSnapshot, DiffClampsWhenEarlierIsLarger) {
  // A reset between snapshots must not wrap the unsigned counter.
  Registry reg;
  reg.counter("c").inc(100);
  Snapshot before = reg.snapshot();
  reg.reset();
  reg.counter("c").inc(3);
  Snapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.counters.at("c"), 0u);
}

TEST(MetricsSnapshot, DiffGaugesSubtractAsLevels) {
  Registry reg;
  reg.gauge("g").set(5.0);
  Snapshot before = reg.snapshot();
  reg.gauge("g").set(3.0);
  Snapshot delta = reg.snapshot().diff(before);
  EXPECT_DOUBLE_EQ(delta.gauges.at("g"), -2.0);
}

TEST(MetricsSnapshot, MergeAddsCountersAndCombinesHistExtremes) {
  Registry r1, r2;
  r1.counter("c").inc(5);
  r2.counter("c").inc(7);
  r2.counter("only_r2").inc(1);
  r1.histogram("h").record(1.0);
  r1.histogram("h").record(3.0);
  r2.histogram("h").record(100.0);

  Snapshot s = r1.snapshot();
  s.merge(r2.snapshot());
  EXPECT_EQ(s.counters.at("c"), 12u);
  EXPECT_EQ(s.counters.at("only_r2"), 1u);
  EXPECT_EQ(s.histograms.at("h").count, 3u);
  EXPECT_DOUBLE_EQ(s.histograms.at("h").sum, 104.0);
  EXPECT_DOUBLE_EQ(s.histograms.at("h").min, 1.0);
  EXPECT_DOUBLE_EQ(s.histograms.at("h").max, 100.0);
  // mean recomputed from merged sum/count, not averaged.
  EXPECT_NEAR(s.histograms.at("h").mean, 104.0 / 3.0, 1e-9);
}

TEST(MetricsSnapshot, MergeEqualsConcatenatedStream) {
  // Two registries record disjoint halves of one stream; the merge of
  // their snapshots is the snapshot of one registry that recorded it all.
  Registry r1, r2, whole;
  auto record = [&](Registry& half, const char* name, double v) {
    half.histogram(name).record(v);
    whole.histogram(name).record(v);
  };
  for (int i = 0; i < 30; ++i) record(r1, "h", 10.0);
  for (int i = 0; i < 10; ++i) record(r2, "h", 50.0);
  for (int i = 0; i < 5000; ++i) {
    record(i % 2 ? r1 : r2, "spread", (i * 7919 % 100003) * 37.0);
  }
  Snapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  const Snapshot expect = whole.snapshot();
  for (const char* name : {"h", "spread"}) {
    const HistStat& m = merged.histograms.at(name);
    const HistStat& w = expect.histograms.at(name);
    EXPECT_EQ(m.buckets, w.buckets) << name;
    EXPECT_EQ(m.count, w.count) << name;
    EXPECT_EQ(m.p50, w.p50) << name;
    EXPECT_EQ(m.p90, w.p90) << name;
    EXPECT_EQ(m.p99, w.p99) << name;
    EXPECT_EQ(m.min, w.min) << name;
    EXPECT_EQ(m.max, w.max) << name;
  }
  // 30 samples of 10 and 10 of 50: the median is 10, not a weighted 20.
  EXPECT_EQ(merged.histograms.at("h").p50, 10.0);
  EXPECT_EQ(merged.histograms.at("h").p99, 50.0);
}

TEST(MetricsSnapshot, MergedHistogramBySuffixEqualsOneStream) {
  // One instrument on two shards ("shard0.x", "shard1.x") merged by name
  // suffix is the histogram that recorded both streams: buckets add, and
  // the percentiles come from the sum, not from averaging the shards'.
  Registry shards, whole;
  for (int i = 0; i < 300; ++i) {
    const double v = (i * 7919 % 1009) * 53.0;
    shards.histogram(i % 3 ? "shard0.x" : "shard1.x").record(v);
    whole.histogram("x").record(v);
  }
  for (int i = 0; i < 40; ++i) {
    shards.histogram("shard1.x").record(1.0e6);
    whole.histogram("x").record(1.0e6);
  }
  shards.histogram("shard0.unrelated_x").record(7.0);  // no "." boundary
  shards.histogram("shard0.y").record(7.0);
  const Snapshot s = shards.snapshot();
  const HistStat m = s.merged_histogram("x");
  const HistStat w = whole.snapshot().histograms.at("x");
  EXPECT_EQ(m.buckets, w.buckets);
  EXPECT_EQ(m.count, w.count);
  EXPECT_EQ(m.count, 340u);
  EXPECT_EQ(m.min, w.min);
  EXPECT_EQ(m.max, w.max);
  EXPECT_EQ(m.p50, w.p50);
  EXPECT_EQ(m.p99, w.p99);
  EXPECT_DOUBLE_EQ(m.sum, w.sum);
  // A plain name matches itself; no match is an empty histogram.
  EXPECT_EQ(whole.snapshot().merged_histogram("x"), w);
  EXPECT_EQ(s.merged_histogram("z"), HistStat{});
}

TEST(MetricsSnapshot, DiffWindowsPercentiles) {
  // The window's own quantiles: the 100 ms samples recorded before the
  // earlier snapshot must not leak into the diff's p99.
  Registry reg, window;
  Histogram& h = reg.histogram("lat_ns");
  for (int i = 0; i < 1000; ++i) h.record(100e6);
  const Snapshot before = reg.snapshot();
  for (int i = 0; i < 1000; ++i) {
    h.record(1e6);
    window.histogram("lat_ns").record(1e6);
  }
  const HistStat d = reg.snapshot().diff(before).histograms.at("lat_ns");
  const HistStat w = window.snapshot().histograms.at("lat_ns");
  EXPECT_EQ(d.buckets, w.buckets);
  EXPECT_EQ(d.count, 1000u);
  EXPECT_DOUBLE_EQ(d.sum, w.sum);
  EXPECT_NEAR(d.p50, 1e6, 1e6 / 64);
  EXPECT_NEAR(d.p99, 1e6, 1e6 / 64);
  EXPECT_NEAR(d.max, 1e6, 1e6 / 64);
  EXPECT_DOUBLE_EQ(d.min, 1e6);

  // An empty window reads as an empty histogram.
  const Snapshot now = reg.snapshot();
  EXPECT_EQ(now.diff(now).histograms.at("lat_ns"), HistStat{});
}

TEST(MetricsSnapshot, MergeIdentityAndDiffRoundTrip) {
  Registry reg;
  reg.counter("c").inc(4);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record(2.0);
  Snapshot s = reg.snapshot();

  Snapshot empty;
  Snapshot merged = s;
  merged.merge(empty);
  EXPECT_EQ(merged, s);

  // diff against an empty baseline is the snapshot itself.
  EXPECT_EQ(s.diff(Snapshot{}), s);
}

// ------------------------------------------------------ bucket percentiles

TEST(HistogramReservoir, ExactPercentilesBelowCapacity) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);  // 1..100, unit buckets
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.percentile(0.5), 50.5, 0.5 + 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(HistogramReservoir, ExactPercentilesAtCapacity) {
  Histogram h;
  for (int i = 100; i >= 1; --i) h.record(i);  // reverse order
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(HistogramReservoir, EstimateAboveCapacityStaysAccurate) {
  // Uniform stream 0..9999, mostly above the unit buckets: every quantile
  // lands within a few percent of the true value.
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.record(i);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);     // exact, not bucketed
  EXPECT_DOUBLE_EQ(h.max(), 9999.0);  // exact, not bucketed
  EXPECT_NEAR(h.mean(), 4999.5, 1e-9);
  EXPECT_NEAR(h.percentile(0.5), 5000.0, 500.0);
  EXPECT_NEAR(h.percentile(0.9), 9000.0, 500.0);
}

TEST(HistogramReservoir, IdenticalStreamsProduceIdenticalReservoirs) {
  Histogram a, b;
  for (int i = 0; i < 5000; ++i) {
    a.record(i * 3.0);
    b.record(i * 3.0);
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), b.percentile(q)) << "q=" << q;
  }
}

TEST(HistogramReservoir, ResetRestoresDeterminism) {
  Histogram h;
  std::vector<double> first, second;
  for (int i = 0; i < 5000; ++i) h.record(i);
  for (double q : {0.25, 0.5, 0.75}) first.push_back(h.percentile(q));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  for (int i = 0; i < 5000; ++i) h.record(i);
  for (double q : {0.25, 0.5, 0.75}) second.push_back(h.percentile(q));
  EXPECT_EQ(first, second);
}

TEST(HistogramBuckets, QuantilesWithinRelativeErrorBound) {
  // A uniform and a log-spaced stream, each ending in three values at and
  // above 2^44. Those share the top bucket, where a quantile is bounded
  // only by [2^44 - 2^37, max]; as the top 3 of 20,003 samples they sit
  // above q = 0.999, so every quantile checked here is within 1/64 of the
  // exact nearest-rank value of a sorted copy of the stream.
  constexpr int kN = 20000;
  std::vector<std::vector<double>> streams(2);
  for (int i = 0; i < kN; ++i) {
    streams[0].push_back(i * 997.0);
    streams[1].push_back(std::floor(std::pow(2.0, 43.5 * i / kN)));
  }
  for (auto& s : streams) {
    for (double big : {0x1p44, 0x1p50, 1e18}) s.push_back(big);
  }
  for (std::size_t k = 0; k < streams.size(); ++k) {
    Histogram h;
    for (double v : streams[k]) h.record(v);
    std::vector<double> sorted = streams[k];
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      const double exact = sorted[rank - 1];
      EXPECT_LE(std::abs(h.percentile(q) - exact), exact / 64.0)
          << "stream " << k << " q=" << q;
    }
    EXPECT_EQ(h.percentile(0.0), sorted.front()) << "stream " << k;
    EXPECT_EQ(h.percentile(1.0), sorted.back()) << "stream " << k;
    EXPECT_GE(h.percentile(0.99995), 0x1p44) << "stream " << k;
  }
  // A constant stream reads exactly its value at every quantile.
  Histogram c;
  for (int i = 0; i < 100; ++i) c.record(123456789.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(c.percentile(q), 123456789.0) << "q=" << q;
  }
}

TEST(MetricsRegistry, ReservoirSeedIsRegistrationOrderIndependent) {
  // Two registries register the same histograms in opposite order; after
  // identical record streams their snapshots must be identical.
  Registry r1, r2;
  r1.histogram("alpha");
  r1.histogram("beta");
  r2.histogram("beta");
  r2.histogram("alpha");
  for (int i = 0; i < 4000; ++i) {
    r1.histogram("alpha").record(i);
    r2.histogram("alpha").record(i);
    r1.histogram("beta").record(9000 - i);
    r2.histogram("beta").record(9000 - i);
  }
  EXPECT_EQ(r1.snapshot(), r2.snapshot());
}

// --------------------------------------------------------- JSON round-trip

namespace {

Snapshot sample_snapshot() {
  Registry reg;
  reg.counter("transport.sends").inc(1234);
  reg.counter("session.911.rounds").inc(2);
  reg.gauge("session.ring.size").set(5);
  reg.gauge("app.wall.cpu_util").set(0.375);
  Histogram& h = reg.histogram("session.token.rotation_ns");
  for (int i = 1; i <= 300; ++i) h.record(i * 1000.0 + 0.25);
  return reg.snapshot();
}

}  // namespace

TEST(MetricsJson, JsonlRoundTripIsExact) {
  Snapshot s = sample_snapshot();
  std::string line = s.to_jsonl();
  EXPECT_EQ(line.find('\n'), std::string::npos) << "JSONL unit must be 1 line";
  Snapshot back;
  ASSERT_TRUE(Snapshot::from_jsonl(line, back));
  EXPECT_EQ(back, s);
}

TEST(MetricsJson, EmptySnapshotRoundTrips) {
  Snapshot s;
  Snapshot back;
  ASSERT_TRUE(Snapshot::from_jsonl(s.to_jsonl(), back));
  EXPECT_EQ(back, s);
  EXPECT_TRUE(back.empty());
}

TEST(MetricsJson, FromJsonRejectsMalformedDocuments) {
  Snapshot out;
  EXPECT_FALSE(Snapshot::from_jsonl("not json", out));
  EXPECT_FALSE(Snapshot::from_jsonl("[1,2]", out));
  EXPECT_FALSE(Snapshot::from_jsonl("{\"counters\":{\"c\":\"nope\"}}", out));
  EXPECT_FALSE(Snapshot::from_jsonl("{\"histograms\":{\"h\":[]}}", out));
  // Unknown top-level keys are tolerated; known ones must be objects.
  EXPECT_TRUE(Snapshot::from_jsonl("{}", out));
  EXPECT_FALSE(Snapshot::from_jsonl("{\"counters\":[]}", out));

  // Counters are whole numbers in [0, 2^64).
  EXPECT_TRUE(Snapshot::from_jsonl("{\"counters\":{\"c\":7}}", out));
  for (const char* bad : {"-1", "1.5", "1e30", "18446744073709551616"}) {
    EXPECT_FALSE(Snapshot::from_jsonl(
        std::string("{\"counters\":{\"c\":") + bad + "}}", out))
        << bad;
  }
  // Histogram counts likewise; buckets are [index, count] pairs with
  // strictly ascending in-range indices and non-zero counts summing to
  // "count".
  auto hist = [](const std::string& count, const std::string& buckets) {
    return "{\"histograms\":{\"h\":{\"count\":" + count +
           ",\"sum\":10,\"min\":5,\"max\":5,\"mean\":5,\"p50\":5,"
           "\"p90\":5,\"p99\":5,\"buckets\":" + buckets + "}}}";
  };
  EXPECT_TRUE(Snapshot::from_jsonl(hist("2", "[[5,2]]"), out));
  EXPECT_TRUE(Snapshot::from_jsonl(hist("3", "[[5,2],[2495,1]]"), out));
  EXPECT_TRUE(Snapshot::from_jsonl(hist("0", "[]"), out));
  const std::vector<std::pair<std::string, std::string>> bad_hists = {
      {"-1", "[]"},                    // negative count
      {"2.5", "[[5,2]]"},              // fractional count
      {"2", "[]"},                     // buckets short of count
      {"2", "[[5,1]]"},                // likewise
      {"2", "[[5,3]]"},                // buckets beyond count
      {"2", "[[5,1],[5,1]]"},          // repeated index
      {"2", "[[6,1],[5,1]]"},          // descending indices
      {"2", "[[2496,2]]"},             // index past the last bucket
      {"2", "[[-1,2]]"},               // negative index
      {"2", "[[5.5,2]]"},              // fractional index
      {"2", "[[5,0],[6,2]]"},          // empty bucket listed
      {"2", "[[5,2,0]]"},              // not a pair
      {"2", "[5,2]"},                  // not pairs at all
      {"2", "{}"},                     // not an array
  };
  for (const auto& [count, buckets] : bad_hists) {
    EXPECT_FALSE(Snapshot::from_jsonl(hist(count, buckets), out))
        << count << " " << buckets;
  }
  EXPECT_FALSE(Snapshot::from_jsonl(
      "{\"histograms\":{\"h\":{\"count\":0,\"sum\":0,\"min\":0,"
      "\"max\":0,\"mean\":0,\"p50\":0,\"p90\":0,\"p99\":0}}}",
      out))
      << "buckets missing";
}

TEST(MetricsJson, TableListsEveryInstrument) {
  Snapshot s = sample_snapshot();
  std::string table = s.to_table();
  EXPECT_NE(table.find("transport.sends"), std::string::npos);
  EXPECT_NE(table.find("session.ring.size"), std::string::npos);
  EXPECT_NE(table.find("session.token.rotation_ns"), std::string::npos);
  EXPECT_NE(table.find("1234"), std::string::npos);
}

// ------------------------------------------------------------ concurrency

TEST(MetricsConcurrency, RecordWhileSnapshotting) {
  // Four threads record 250k values each into one histogram while a fifth
  // snapshots in a loop. Every snapshot is internally consistent, and the
  // final one equals a single-threaded recording of the same values.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250000;
  auto value = [](int t, int i) {
    return static_cast<double>((std::int64_t{i} * 7919 + t * 104729) % 5000000);
  };
  Registry reg;
  Histogram& h = reg.histogram("lat_ns");
  std::atomic<bool> done{false};
  std::size_t snapshots = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const HistStat s = reg.snapshot().histograms.at("lat_ns");
      std::uint64_t in_buckets = 0;
      for (const auto& [idx, n] : s.buckets) in_buckets += n;
      EXPECT_EQ(s.count, in_buckets);
      EXPECT_LE(s.p50, s.p90);
      EXPECT_LE(s.p90, s.p99);
      EXPECT_LE(s.p99, s.max);
      if (s.count) {
        EXPECT_LE(s.min, s.p50);
      }
      ++snapshots;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(value(t, i));
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_GT(snapshots, 0u);

  Registry ref;
  Histogram& one = ref.histogram("lat_ns");
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) one.record(value(t, i));
  }
  // Whole-number values keep every partial sum exact, so even the sum is
  // independent of the interleaving.
  EXPECT_EQ(reg.snapshot(), ref.snapshot());
}
