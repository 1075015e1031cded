// Spans recorded by the benchmark's own code around its calls into each
// layer (try_multicast, the delivery callback, ShardStore::append,
// ShardedMap::put/get, ShardedLockManager::acquire/release, run_for
// slices). Each recording thread owns one SpanLog; logs are merged and
// written out after the run, never while threads record.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

enum class Span : std::size_t {
  kSubmit = 0,  ///< SessionNode::try_multicast
  kHandler,     ///< the benchmark's delivery callback, self time
  kAppend,      ///< storage::ShardStore::append
  kPut,         ///< data::ShardedMap::put
  kGet,         ///< data::ShardedMap::get
  kAcquire,     ///< data::ShardedLockManager::acquire
  kRelease,     ///< data::ShardedLockManager::release
  kRunFor,      ///< one SimNetwork::loop().run_for slice
  kCount
};

inline const char* span_name(Span s) {
  static const char* const kNames[] = {
      "session.try_multicast", "bench.deliver_handler",
      "storage.ShardStore::append", "data.ShardedMap::put",
      "data.ShardedMap::get", "data.ShardedLockManager::acquire",
      "data.ShardedLockManager::release", "sim.run_for"};
  return kNames[static_cast<std::size_t>(s)];
}

inline Time wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans: every duration per kind (for exact percentiles) and
/// the first kRawKept spans per kind with their start instants (the part
/// written to the trace file).
class SpanLog {
 public:
  static constexpr std::size_t kRawKept = 2000;
  struct Raw {
    Time start;
    Time dur;
  };

  void add(Span s, Time start, Time dur) {
    const auto k = static_cast<std::size_t>(s);
    durs_[k].add(static_cast<double>(dur));
    if (raw_[k].size() < kRawKept) raw_[k].push_back(Raw{start, dur});
  }
  Samples& durations(Span s) { return durs_[static_cast<std::size_t>(s)]; }
  const std::vector<Raw>& raw(Span s) const {
    return raw_[static_cast<std::size_t>(s)];
  }

 private:
  std::array<Samples, static_cast<std::size_t>(Span::kCount)> durs_;
  std::array<std::vector<Raw>, static_cast<std::size_t>(Span::kCount)> raw_;
};

/// Merged view of several threads' logs.
inline Samples merged(std::vector<SpanLog>& logs, Span s) {
  Samples out;
  for (auto& l : logs) out.merge(l.durations(s));
  return out;
}

/// Writes "kind,thread,start_ns,dur_ns" rows (the kept raw spans) followed
/// by one "# kind count mean p50 p99" summary per kind. Returns false when
/// the file cannot be written.
bool write_spans(const std::string& path, std::vector<SpanLog>& logs);

}  // namespace perfbench
