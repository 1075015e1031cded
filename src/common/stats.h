// Counters, gauges and histograms used to *measure* the paper's evaluation
// metrics (task switches, packets, bytes, latencies) rather than computing
// them from formulas. Plain value types; owners aggregate, and the
// MetricsRegistry (common/metrics.h) names and exports them.
//
// Thread model (the production runtime, DESIGN.md §5i): every instrument is
// a set of relaxed atomics, so any thread may record without a lock and a
// snapshot may read while others record. Nothing is seeded or sampled: the
// same record stream always yields the same values.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace raincore {

/// Monotonic event counter (relaxed atomic: increments from any thread).
/// Copy/move transfer the current value — value semantics for aggregates
/// that get moved into containers, not a handle to the original.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& o) : value_(o.value()) {}
  Counter& operator=(const Counter& o) {
    value_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value instrument for levels (ring size, queue depth, bytes held).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& o) : value_(o.value()) {}
  Gauge& operator=(const Gauge& o) {
    value_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-linear histogram over non-negative values (HdrHistogram-style).
///
/// Values below 128 get one bucket each; every power of two from 2^7 to
/// 2^43 is split into 64 equal buckets, so a bucket's width is at most 1/64
/// of its lowest value; values of 2^44 (about 4.9 h in ns) and above share
/// the top bucket. Negative values count as 0. count/sum/min/max are exact
/// over the whole stream; percentiles are exact to bucket resolution (a
/// relative error below 1/64). Because every histogram has the same bucket
/// layout, bucket counts add and subtract exactly — that is what makes
/// metrics::Snapshot::merge/diff of percentiles exact.
///
/// Lock-free: record() is relaxed atomic adds plus one release increment,
/// from any thread. Counter blocks (one per power of two) are allocated on
/// first use, so an instrument costs a few hundred bytes until it sees a
/// wide range of values.
class Histogram {
 public:
  static constexpr std::uint32_t kBuckets = 2496;
  /// Non-empty buckets as (index, count) pairs in ascending index order.
  using Buckets = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

  Histogram() = default;
  /// Deep copy (value semantics); the copy is an independent instrument.
  Histogram(const Histogram& o);
  Histogram& operator=(const Histogram& o);
  ~Histogram();

  void record(double v);
  void record_time(Time t) { record(static_cast<double>(t)); }

  std::size_t count() const;
  double min() const;
  double max() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    std::size_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  /// Nearest-rank quantile, q in [0, 1] (see quantile()).
  double percentile(double q) const;

  /// The non-empty buckets. Every sample they count is also reflected in
  /// a later min()/max()/sum() read on the same thread.
  Buckets buckets() const;

  /// Quantile q of the samples `buckets` count, whose exact extremes are
  /// `min` and `max`: q <= 0 gives min, q >= 1 gives max, otherwise the
  /// highest value of the bucket holding the nearest-rank sample, clamped
  /// into [min, max]. 0 when the buckets are empty.
  static double quantile(const Buckets& buckets, double min, double max,
                         double q);
  /// Lowest and highest value bucket `idx` holds (+inf for the top one).
  static double bucket_low(std::uint32_t idx);
  static double bucket_high(std::uint32_t idx);

  void reset();

 private:
  static constexpr std::size_t kBlock = 64;
  static constexpr std::size_t kBlocks = kBuckets / kBlock;
  using Block = std::array<std::atomic<std::uint64_t>, kBlock>;

  Block& block(std::size_t b);

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  std::array<std::atomic<Block*>, kBlocks> blocks_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{kInf};   ///< kInf until the first record
  std::atomic<double> max_{-kInf};  ///< -kInf until the first record
};

/// Formats a fixed-width numeric table row for the bench harnesses.
std::string format_row(const std::vector<std::string>& cells,
                       const std::vector<int>& widths);

}  // namespace raincore
