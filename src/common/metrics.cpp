#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace raincore::metrics {

namespace {

constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();

// a + b, or a - b per bucket with buckets that would go negative dropped
// (the histogram was reset between the two snapshots).
Histogram::Buckets combine(const Histogram::Buckets& a,
                           const Histogram::Buckets& b, bool subtract) {
  Histogram::Buckets out;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    const bool from_a = j == b.end() || (i != a.end() && i->first <= j->first);
    const bool from_b = i == a.end() || (j != b.end() && j->first <= i->first);
    const std::uint32_t idx = from_a ? i->first : j->first;
    const std::uint64_t x = from_a ? (i++)->second : 0;
    const std::uint64_t y = from_b ? (j++)->second : 0;
    const std::uint64_t n = subtract ? (x > y ? x - y : 0) : x + y;
    if (n) out.emplace_back(idx, n);
  }
  return out;
}

// Sets count and everything derived from the buckets, sum, min and max.
void derive(HistStat& hs) {
  hs.count = 0;
  for (const auto& [idx, n] : hs.buckets) hs.count += n;
  hs.mean = hs.count ? hs.sum / static_cast<double>(hs.count) : 0.0;
  hs.p50 = Histogram::quantile(hs.buckets, hs.min, hs.max, 0.50);
  hs.p90 = Histogram::quantile(hs.buckets, hs.min, hs.max, 0.90);
  hs.p99 = Histogram::quantile(hs.buckets, hs.min, hs.max, 0.99);
}

std::string fmt(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[prefix_ + name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return gauges_[prefix_ + name];
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return histograms_[prefix_ + name];
}

bool Registry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string full = prefix_ + name;
  return counters_.count(full) || gauges_.count(full) ||
         histograms_.count(full);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    HistStat hs;
    hs.buckets = h.buckets();  // first: sum/min/max cover what it counts
    hs.sum = h.sum();
    hs.min = h.min();
    hs.max = h.max();
    derive(hs);
    s.histograms[name] = std::move(hs);
  }
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

Snapshot Snapshot::diff(const Snapshot& earlier) const {
  Snapshot out = *this;
  for (auto& [name, v] : out.counters) {
    auto it = earlier.counters.find(name);
    if (it != earlier.counters.end()) v -= std::min(v, it->second);
  }
  for (auto& [name, v] : out.gauges) {
    auto it = earlier.gauges.find(name);
    if (it != earlier.gauges.end()) v -= it->second;
  }
  for (auto& [name, hs] : out.histograms) {
    auto it = earlier.histograms.find(name);
    if (it == earlier.histograms.end()) continue;
    Histogram::Buckets window = combine(hs.buckets, it->second.buckets, true);
    if (window.empty()) {
      hs = HistStat{};
      continue;
    }
    hs.min = std::max(hs.min, Histogram::bucket_low(window.front().first));
    hs.max = std::min(hs.max, Histogram::bucket_high(window.back().first));
    hs.sum -= it->second.sum;
    hs.buckets = std::move(window);
    derive(hs);
  }
  return out;
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, hs] : other.histograms) {
    auto [it, fresh] = histograms.try_emplace(name, hs);
    if (fresh || hs.count == 0) continue;
    HistStat& mine = it->second;
    mine.min = mine.count ? std::min(mine.min, hs.min) : hs.min;
    mine.max = mine.count ? std::max(mine.max, hs.max) : hs.max;
    mine.sum += hs.sum;
    mine.buckets = combine(mine.buckets, hs.buckets, false);
    derive(mine);
  }
}

JsonValue Snapshot::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue jc = JsonValue::object();
  for (const auto& [name, v] : counters) {
    jc.set(name, JsonValue::number(static_cast<double>(v)));
  }
  root.set("counters", std::move(jc));
  JsonValue jg = JsonValue::object();
  for (const auto& [name, v] : gauges) jg.set(name, JsonValue::number(v));
  root.set("gauges", std::move(jg));
  JsonValue jh = JsonValue::object();
  for (const auto& [name, hs] : histograms) {
    JsonValue o = JsonValue::object();
    o.set("count", JsonValue::number(static_cast<double>(hs.count)));
    o.set("sum", JsonValue::number(hs.sum));
    o.set("min", JsonValue::number(hs.min));
    o.set("max", JsonValue::number(hs.max));
    o.set("mean", JsonValue::number(hs.mean));
    o.set("p50", JsonValue::number(hs.p50));
    o.set("p90", JsonValue::number(hs.p90));
    o.set("p99", JsonValue::number(hs.p99));
    JsonValue jb = JsonValue::array();
    for (const auto& [idx, n] : hs.buckets) {
      JsonValue pair = JsonValue::array();
      pair.push_back(JsonValue::number(idx));
      pair.push_back(JsonValue::number(static_cast<double>(n)));
      jb.push_back(std::move(pair));
    }
    o.set("buckets", std::move(jb));
    jh.set(name, std::move(o));
  }
  root.set("histograms", std::move(jh));
  return root;
}

std::string Snapshot::to_jsonl() const { return to_json().dump(); }

bool Snapshot::from_json(const JsonValue& v, Snapshot& out) {
  if (!v.is_object()) return false;
  Snapshot s;
  if (const JsonValue* jc = v.find("counters")) {
    if (!jc->is_object()) return false;
    for (const auto& [name, item] : jc->members()) {
      if (!item.read_uint(kMaxCount, s.counters[name])) return false;
    }
  }
  if (const JsonValue* jg = v.find("gauges")) {
    if (!jg->is_object()) return false;
    for (const auto& [name, item] : jg->members()) {
      if (!item.is_number()) return false;
      s.gauges[name] = item.as_number();
    }
  }
  if (const JsonValue* jh = v.find("histograms")) {
    if (!jh->is_object()) return false;
    for (const auto& [name, item] : jh->members()) {
      if (!item.is_object()) return false;
      HistStat hs;
      auto num = [&](const char* key, double& dst) {
        const JsonValue* f = item.find(key);
        if (!f || !f->is_number()) return false;
        dst = f->as_number();
        return true;
      };
      const JsonValue* count = item.find("count");
      const JsonValue* jb = item.find("buckets");
      if (!count || !count->read_uint(kMaxCount, hs.count) ||
          !num("sum", hs.sum) || !num("min", hs.min) || !num("max", hs.max) ||
          !num("mean", hs.mean) || !num("p50", hs.p50) ||
          !num("p90", hs.p90) || !num("p99", hs.p99) || !jb ||
          !jb->is_array()) {
        return false;
      }
      // Strictly ascending in-range indices with non-zero counts that sum
      // to `count`: what Registry::snapshot() emits and derive() relies on.
      std::uint64_t total = 0;
      for (const JsonValue& pair : jb->items()) {
        std::uint64_t idx = 0, n = 0;
        if (!pair.is_array() || pair.items().size() != 2 ||
            !pair.items()[0].read_uint(Histogram::kBuckets - 1, idx) ||
            (!hs.buckets.empty() && idx <= hs.buckets.back().first) ||
            !pair.items()[1].read_uint(hs.count - total, n) || n == 0) {
          return false;
        }
        total += n;
        hs.buckets.emplace_back(static_cast<std::uint32_t>(idx), n);
      }
      if (total != hs.count) return false;
      s.histograms[name] = std::move(hs);
    }
  }
  out = std::move(s);
  return true;
}

bool Snapshot::from_jsonl(const std::string& line, Snapshot& out) {
  JsonValue v;
  if (!JsonValue::parse(line, v)) return false;
  return from_json(v, out);
}

std::string Snapshot::to_table() const {
  const std::vector<int> w{-44, 12, 12, 12, 12, 12, 12};
  std::string out =
      format_row({"instrument", "count", "min", "mean", "p50", "p99", "max"}, w);
  out += '\n';
  for (const auto& [name, v] : counters) {
    out += format_row({name, fmt(static_cast<double>(v)), "-", "-", "-", "-", "-"}, w);
    out += '\n';
  }
  for (const auto& [name, v] : gauges) {
    out += format_row({name, "-", "-", fmt(v), "-", "-", "-"}, w);
    out += '\n';
  }
  for (const auto& [name, hs] : histograms) {
    out += format_row({name, fmt(static_cast<double>(hs.count)), fmt(hs.min),
                       fmt(hs.mean), fmt(hs.p50), fmt(hs.p99), fmt(hs.max)},
                      w);
    out += '\n';
  }
  return out;
}

}  // namespace raincore::metrics
