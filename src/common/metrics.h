// Unified observability layer: a registry of named, typed instruments.
//
// Every protocol layer (transport, session, data services, hierarchy, apps)
// owns a Registry and registers its instruments under hierarchical
// dot-separated names ("session.token.rotation_ns", "transport.fod", ...).
// The instrument layer is thread-safe without hot-path locks (every
// instrument is relaxed atomics — see common/stats.h); a registry mutex
// guards only registration and snapshot iteration, never a record. Nothing
// is sampled, so metric snapshots of a seeded single-threaded simulation
// run are bit-for-bit reproducible.
//
// Snapshot is the value type: diff() isolates a measurement window,
// merge() aggregates across instances (all components of one node, or the
// same component across cluster nodes), and the JSONL/table exporters feed
// the BENCH_*.json machine-readable output and human diagnostics.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "common/json.h"
#include "common/stats.h"

namespace raincore::metrics {

/// Summary of a Histogram at snapshot time. `buckets` are the histogram's
/// non-empty buckets and `count` their sum; merge/diff add or subtract
/// them exactly and recompute p50/p90/p99 from the result (to the 1/64
/// bucket resolution, see Histogram).
struct HistStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  Histogram::Buckets buckets;

  bool operator==(const HistStat&) const = default;
};

/// Point-in-time copy of a registry's (or several registries') values.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistStat> histograms;

  bool operator==(const Snapshot&) const = default;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Values accumulated since `earlier`: counters, histogram buckets and
  /// sums subtract (monotonic), gauges subtract as levels. A histogram's
  /// percentiles are those of the window's samples alone; its min/max are
  /// the window's bucket range, clamped into the later snapshot's
  /// [min, max]. An empty window reads all zeros.
  Snapshot diff(const Snapshot& earlier) const;

  /// Element-wise aggregation: counters, histogram buckets and sums add;
  /// gauges add (sum of levels across instances); histogram min/min,
  /// max/max, and the percentiles are those of the combined buckets — the
  /// same as one histogram that recorded both streams.
  void merge(const Snapshot& other);

  /// One JSON object (single line, no trailing newline) — the JSONL export
  /// unit. Keys: "counters", "gauges", "histograms".
  std::string to_jsonl() const;
  JsonValue to_json() const;
  static bool from_json(const JsonValue& v, Snapshot& out);
  static bool from_jsonl(const std::string& line, Snapshot& out);

  /// Human-readable aligned table, one instrument per row.
  std::string to_table() const;
};

/// Registry of named instruments. References returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime
/// (node-based map), so components bind them once at construction.
///
/// A registry may carry an instance prefix ("ring3.") prepended to every
/// registered name, so two instances of the same component on one node
/// (e.g. two session rings sharing a transport) keep distinct instruments
/// when their snapshots are merged.
class Registry {
 public:
  Registry() = default;
  explicit Registry(std::string prefix) : prefix_(std::move(prefix)) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  const std::string& prefix() const { return prefix_; }

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  bool has(const std::string& name) const;
  std::size_t instrument_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  Snapshot snapshot() const;
  void reset();

 private:
  /// Guards the instrument maps (registration / snapshot iteration). The
  /// instruments themselves are thread-safe; bound references recorded
  /// through never touch this mutex.
  mutable std::mutex mu_;
  std::string prefix_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace raincore::metrics
