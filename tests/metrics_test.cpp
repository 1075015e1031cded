// Observability layer unit tests: registry naming/lookup, snapshot
// diff/merge algebra, bounded-reservoir percentile accuracy, JSON(L)
// round-trips, and reservoir determinism (the property the chaos
// seed-replay suite depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/stats.h"

using namespace raincore;
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
  // Reservoir seeds derive from the prefixed name, so equal-prefixed
  // registries replay identically while different prefixes are allowed
  // to (and here do not need to) diverge.
  Registry a("ringX."), b("ringX.");
  for (int i = 0; i < 4000; ++i) {
    a.histogram("lat", 32).record(i);
    b.histogram("lat", 32).record(i);
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(MetricsRegistry, ReservoirSamplesIsBoundedBySumOfCapacities) {
  Registry reg;
  Histogram& a = reg.histogram("a", 16);
  Histogram& b = reg.histogram("b", 8);
  for (int i = 0; i < 10000; ++i) {
    a.record(i);
    b.record(i);
  }
  EXPECT_EQ(reg.reservoir_samples(), 24u);
  EXPECT_EQ(a.count(), 10000u);  // stream count is exact regardless
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

TEST(MetricsSnapshot, MergePercentilesAreCountWeighted) {
  Registry r1, r2;
  for (int i = 0; i < 30; ++i) r1.histogram("h").record(10.0);
  for (int i = 0; i < 10; ++i) r2.histogram("h").record(50.0);
  Snapshot s = r1.snapshot();
  s.merge(r2.snapshot());
  // (30*10 + 10*50) / 40 = 20
  EXPECT_NEAR(s.histograms.at("h").p50, 20.0, 1e-9);
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

// ------------------------------------------------- reservoir percentiles

TEST(HistogramReservoir, ExactPercentilesBelowCapacity) {
  Histogram h(128);
  for (int i = 1; i <= 100; ++i) h.record(i);  // 1..100, under capacity
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.percentile(0.5), 50.5, 0.5 + 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(HistogramReservoir, ExactPercentilesAtCapacity) {
  Histogram h(100);
  for (int i = 100; i >= 1; --i) h.record(i);  // reverse order, fills exactly
  EXPECT_EQ(h.reservoir_size(), 100u);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(HistogramReservoir, EstimateAboveCapacityStaysAccurate) {
  // Uniform stream 0..9999 at 512 samples: the reservoir estimate of any
  // quantile should land within a few percent of the true value.
  Histogram h(512);
  for (int i = 0; i < 10000; ++i) h.record(i);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.reservoir_size(), 512u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);     // exact even beyond capacity
  EXPECT_DOUBLE_EQ(h.max(), 9999.0);  // exact even beyond capacity
  EXPECT_NEAR(h.mean(), 4999.5, 1e-9);
  EXPECT_NEAR(h.percentile(0.5), 5000.0, 500.0);
  EXPECT_NEAR(h.percentile(0.9), 9000.0, 500.0);
}

TEST(HistogramReservoir, IdenticalStreamsProduceIdenticalReservoirs) {
  Histogram a(64, 42), b(64, 42);
  for (int i = 0; i < 5000; ++i) {
    a.record(i * 3.0);
    b.record(i * 3.0);
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), b.percentile(q)) << "q=" << q;
  }
}

TEST(HistogramReservoir, ResetRestoresDeterminism) {
  Histogram h(64, 7);
  std::vector<double> first, second;
  for (int i = 0; i < 5000; ++i) h.record(i);
  for (double q : {0.25, 0.5, 0.75}) first.push_back(h.percentile(q));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  for (int i = 0; i < 5000; ++i) h.record(i);
  for (double q : {0.25, 0.5, 0.75}) second.push_back(h.percentile(q));
  EXPECT_EQ(first, second);
}

TEST(MetricsRegistry, ReservoirSeedIsRegistrationOrderIndependent) {
  // Two registries register the same histograms in opposite order; after
  // identical record streams their snapshots must be identical (per-name
  // seeds, not per-registration-counter seeds).
  Registry r1, r2;
  r1.histogram("alpha", 32);
  r1.histogram("beta", 32);
  r2.histogram("beta", 32);
  r2.histogram("alpha", 32);
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
  Histogram& h = reg.histogram("session.token.rotation_ns", 64);
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
}

TEST(MetricsJson, TableListsEveryInstrument) {
  Snapshot s = sample_snapshot();
  std::string table = s.to_table();
  EXPECT_NE(table.find("transport.sends"), std::string::npos);
  EXPECT_NE(table.find("session.ring.size"), std::string::npos);
  EXPECT_NE(table.find("session.token.rotation_ns"), std::string::npos);
  EXPECT_NE(table.find("1234"), std::string::npos);
}
