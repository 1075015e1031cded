#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace raincore {

namespace {

// Indices below 128 are the values themselves. Above, block b (buckets
// 64b..64b+63) spans [2^(b+5), 2^(b+6)) in 64 steps of 2^(b-1).
constexpr std::uint32_t kUnitBuckets = 128;
constexpr double kTopValue = 0x1p44;

std::uint32_t bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // also negatives and NaN
  if (v >= kTopValue) return Histogram::kBuckets - 1;
  const auto u = static_cast<std::uint64_t>(v);
  if (u < kUnitBuckets) return static_cast<std::uint32_t>(u);
  const int k = static_cast<int>(std::bit_width(u)) - 1;  // 7..43
  return static_cast<std::uint32_t>(64 * (k - 5) + (u >> (k - 6)) - 64);
}

}  // namespace

Histogram::Histogram(const Histogram& o) { *this = o; }

Histogram& Histogram::operator=(const Histogram& o) {
  if (this == &o) return *this;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const Block* src = o.blocks_[b].load(std::memory_order_acquire);
    Block* dst = src ? &block(b) : blocks_[b].load(std::memory_order_acquire);
    if (!dst) continue;
    for (std::size_t i = 0; i < kBlock; ++i) {
      (*dst)[i].store(src ? (*src)[i].load(std::memory_order_relaxed) : 0,
                      std::memory_order_relaxed);
    }
  }
  sum_.store(o.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  min_.store(o.min_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  max_.store(o.max_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

Histogram::~Histogram() {
  for (auto& slot : blocks_) delete slot.load(std::memory_order_acquire);
}

Histogram::Block& Histogram::block(std::size_t b) {
  Block* p = blocks_[b].load(std::memory_order_acquire);
  if (p) return *p;
  auto* fresh = new Block{};
  if (blocks_[b].compare_exchange_strong(p, fresh, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;  // another thread installed this block first
  return *p;
}

void Histogram::record(double v) {
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Release, paired with buckets()' acquire: whoever counts this sample
  // also sees the min/max/sum updates above, so a snapshot's quantiles
  // never fall outside its [min, max].
  const std::uint32_t idx = bucket_of(v);
  block(idx / kBlock)[idx % kBlock].fetch_add(1, std::memory_order_release);
}

std::size_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& [idx, c] : buckets()) n += c;
  return n;
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return v == kInf ? 0.0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return v == -kInf ? 0.0 : v;
}

double Histogram::percentile(double q) const {
  Buckets b = buckets();  // before min/max: they then cover every sample
  return quantile(b, min(), max(), q);
}

Histogram::Buckets Histogram::buckets() const {
  Buckets out;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const Block* p = blocks_[b].load(std::memory_order_acquire);
    if (!p) continue;
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (std::uint64_t n = (*p)[i].load(std::memory_order_acquire)) {
        out.emplace_back(static_cast<std::uint32_t>(b * kBlock + i), n);
      }
    }
  }
  return out;
}

double Histogram::quantile(const Buckets& buckets, double min, double max,
                           double q) {
  std::uint64_t total = 0;
  for (const auto& [idx, n] : buckets) total += n;
  if (total == 0) return 0.0;
  if (!(q > 0.0)) return min;
  if (q >= 1.0) return max;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (const auto& [idx, n] : buckets) {
    seen += n;
    if (seen >= rank) return std::min(std::max(bucket_high(idx), min), max);
  }
  return max;
}

double Histogram::bucket_low(std::uint32_t idx) {
  if (idx < kUnitBuckets) return idx;
  const unsigned shift = idx / kBlock - 1;
  return static_cast<double>(std::uint64_t{kBlock + idx % kBlock} << shift);
}

double Histogram::bucket_high(std::uint32_t idx) {
  return idx + 1 >= kBuckets ? kInf : bucket_low(idx + 1) - 1.0;
}

void Histogram::reset() {
  for (auto& slot : blocks_) {
    if (Block* p = slot.load(std::memory_order_acquire)) {
      for (auto& c : *p) c.store(0, std::memory_order_relaxed);
    }
  }
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
}

std::string format_row(const std::vector<std::string>& cells,
                       const std::vector<int>& widths) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%*s", w, cells[i].c_str());
    out += buf;
    if (i + 1 < cells.size()) out += "  ";
  }
  return out;
}

}  // namespace raincore
