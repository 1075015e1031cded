// Measurement primitives of the benchmark: exact sample sets, the
// open-loop due-time timeline, and the CPU clocks.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using raincore::Time;

/// Every sample kept, no reservoir: percentiles are exact order statistics
/// (nearest rank on the sorted set), so merging per-thread sets loses
/// nothing. Recording threads each own one Samples and never share it; the
/// sets are merged after the threads have stopped.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    if (!o.v_.empty()) sorted_ = false;
  }
  void reserve(std::size_t n) { v_.reserve(n); }
  std::size_t count() const { return v_.size(); }

  /// Nearest rank: the smallest sample with at least q·n samples at or
  /// below it. 0 for an empty set.
  double quantile(double q) {
    if (v_.empty()) return 0.0;
    sort_once();
    const double rank = std::ceil(q * static_cast<double>(v_.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v_[std::min(idx, v_.size() - 1)];
  }
  double mean() const {
    if (v_.empty()) return 0.0;
    double s = 0.0;
    for (double x : v_) s += x;
    return s / static_cast<double>(v_.size());
  }
  double max() {
    if (v_.empty()) return 0.0;
    sort_once();
    return v_.back();
  }

  /// Highest of p50, p90, p99, p99.9, ... that leaves at least ten samples
  /// above it; 0 when even p50 does not.
  double top_supported_quantile() const {
    double best = 0.0;
    const double n = static_cast<double>(v_.size());
    for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}) {
      if (n - std::ceil(q * n) >= 10.0) best = q;
    }
    return best;
  }

  /// "p50 9.512 | p90 .. | p99 .. | p99.9 .. (n=..., top p99.99=..)" with
  /// values divided by `scale`.
  std::string summary(double scale, const char* unit);

 private:
  void sort_once() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// Open-loop schedule shared by `sources` producers at an aggregate `rate`
/// msgs/s: global message g = i·sources + s (message i of source s) is due
/// at t0 + ⌊g·10⁹ / rate⌋. Every due time is computed from its index, never
/// by accumulating a period, so the schedule cannot drift however long it
/// runs, and the sources interleave evenly.
struct Timeline {
  Time t0 = 0;
  std::int64_t rate = 1;  ///< aggregate msgs/s
  std::size_t sources = 1;

  Time due(std::size_t source, std::uint64_t i) const {
    const __int128 g = static_cast<__int128>(i) * sources + source;
    return t0 + static_cast<Time>(g * raincore::kNanosPerSec / rate);
  }
  /// Messages of `source` due strictly before `t`.
  std::uint64_t count_before(std::size_t source, Time t) const {
    if (t <= t0) return 0;
    const __int128 d = t - t0;
    // due(g) < t  ⟺  g·10⁹ < d·rate  ⟺  g < ⌈d·rate / 10⁹⌉.
    const __int128 num = d * rate;
    const __int128 g_end =
        (num + raincore::kNanosPerSec - 1) / raincore::kNanosPerSec;
    if (g_end <= static_cast<__int128>(source)) return 0;
    return static_cast<std::uint64_t>((g_end - source + sources - 1) /
                                      sources);
  }
};

inline Time thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Time>(ts.tv_sec) * raincore::kNanosPerSec + ts.tv_nsec;
}

/// Process CPU, user + system, over every thread (getrusage).
inline Time process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<Time>(t.tv_sec) * raincore::kNanosPerSec +
           static_cast<Time>(t.tv_usec) * raincore::kNanosPerMicro;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Median of a small set of per-repetition figures (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
