#include <cinttypes>
#include <cstdio>

#include "checks.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

std::string Samples::summary(double scale, const char* unit) {
  char buf[320];
  const double top = top_supported_quantile();
  std::snprintf(buf, sizeof(buf),
                "p50 %.4f | p90 %.4f | p95 %.4f | p99 %.4f | p99.9 %.4f | max %.4f %s "
                "(n=%zu; p%g=%.4f is the highest with >=10 samples above)",
                quantile(0.5) / scale, quantile(0.9) / scale, quantile(0.95) / scale,
                quantile(0.99) / scale, quantile(0.999) / scale, max() / scale,
                unit, count(), top * 100.0, quantile(top) / scale);
  return buf;
}

std::vector<std::uint64_t> SeqLog::indices() const {
  std::vector<std::uint64_t> out;
  out.reserve(at_.size());
  std::size_t j = 0;
  std::uint64_t next = 0;
  for (std::size_t pos = 0; pos < at_.size(); ++pos) {
    if (j < jumps_.size() && jumps_[j].first == pos) next = jumps_[j++].second;
    out.push_back(next++);
  }
  return out;
}

void check_stream(const std::vector<bool>& accepted,
                  const std::vector<std::uint64_t>& delivered,
                  StreamViolations& out) {
  std::vector<bool> seen(accepted.size(), false);
  std::uint64_t highest = 0;
  bool any = false;
  for (std::uint64_t idx : delivered) {
    if (idx >= accepted.size() || !accepted[idx]) {
      ++out.phantom;
      continue;
    }
    if (seen[idx]) {
      ++out.duplicated;
      continue;
    }
    if (any && idx < highest) ++out.reordered;
    seen[idx] = true;
    if (!any || idx > highest) highest = idx;
    any = true;
  }
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (accepted[i] && !seen[i]) ++out.lost;
  }
}

std::string encode_value(std::uint32_t key, NodeId writer, std::uint32_t seq,
                         std::size_t size) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "k%07u:w%03u:s%09u:", key,
                              writer, seq);
  std::string v(buf, static_cast<std::size_t>(n));
  if (v.size() < size) v.resize(size, 'v');
  return v;
}

std::optional<ValueId> decode_value(const std::string& v) {
  ValueId id;
  unsigned key = 0, writer = 0, seq = 0;
  if (std::sscanf(v.c_str(), "k%7u:w%3u:s%9u:", &key, &writer, &seq) != 3) {
    return std::nullopt;
  }
  id.key = key;
  id.writer = writer;
  id.seq = seq;
  return id;
}

std::uint64_t replica_mismatches(
    const std::vector<const std::map<std::string, std::string>*>& replicas) {
  std::uint64_t bad = 0;
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    if (*replicas[i] != *replicas[0]) ++bad;
  }
  return bad;
}

bool write_spans(const std::string& path, std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,thread,start_ns,dur_ns\n");
  for (std::size_t k = 0; k < static_cast<std::size_t>(Span::kCount); ++k) {
    const auto s = static_cast<Span>(k);
    for (std::size_t t = 0; t < logs.size(); ++t) {
      for (const auto& r : logs[t].raw(s)) {
        std::fprintf(f, "%s,%zu,%" PRId64 ",%" PRId64 "\n", span_name(s), t,
                     r.start, r.dur);
      }
    }
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(Span::kCount); ++k) {
    const auto s = static_cast<Span>(k);
    Samples all = merged(logs, s);
    if (all.count() == 0) continue;
    std::fprintf(f, "# %s count=%zu mean_ns=%.1f p50_ns=%.0f p99_ns=%.0f\n",
                 span_name(s), all.count(), all.mean(), all.quantile(0.5),
                 all.quantile(0.99));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
