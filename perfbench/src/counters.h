// Reading the program's own instruments: metrics snapshots of every node
// summed by instrument-name suffix (the shard<k>. prefixes differ per
// ring), and the safe ratio every per-op figure uses.
#pragma once

#include <string>

#include "common/metrics.h"

namespace perfbench {

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sum of every counter whose name ends with `suffix`.
inline double counter_sum(const raincore::metrics::Snapshot& s,
                          const std::string& suffix) {
  double v = 0;
  for (const auto& [name, c] : s.counters) {
    if (ends_with(name, suffix)) v += static_cast<double>(c);
  }
  return v;
}

/// Count-weighted merge of a reservoir quantile across every histogram
/// whose name ends with `suffix` (the program's own estimate).
inline double hist_quantile(const raincore::metrics::Snapshot& s,
                            const std::string& suffix,
                            double raincore::metrics::HistStat::*field) {
  double num = 0.0, den = 0.0;
  for (const auto& [name, h] : s.histograms) {
    if (!ends_with(name, suffix) || h.count == 0) continue;
    num += h.*field * static_cast<double>(h.count);
    den += static_cast<double>(h.count);
  }
  return den > 0 ? num / den : 0.0;
}

inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace perfbench
