// Result printing. Every run prints a human-readable report, then, as the
// last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). The metric names and units here are the ones
// BENCHMARK.json declares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Per-layer metrics: the end-to-end metric (and workloads) it should
  /// move. Empty for end-to-end metrics.
  const char* moves;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Sets a metric declared in one of the two lists (aborts otherwise: a
  /// misspelt name is a benchmark bug).
  void set(const std::string& name, double value);

  /// One free-form report line (printf-style) to stdout.
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// A failed check: the run is incorrect; `count` violations become
  /// failed ops.
  void fail(std::uint64_t count, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  bool correct() const { return correct_; }

  /// Prints the metric tables and the final JSON line; returns the exit
  /// code (0 only when every check passed and every metric was set).
  int finish(bool trace);

 private:
  std::string workload_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
