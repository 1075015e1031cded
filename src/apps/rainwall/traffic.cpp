#include "apps/rainwall/traffic.h"

#include <cassert>

namespace raincore::apps {

namespace {
constexpr std::uint32_t kClientNet = 0x0A000000;  ///< 10.0.0.0/8 clients
constexpr std::uint32_t kServerNet = 0xC0A80000;  ///< 192.168.0.0/16 servers
}  // namespace

std::vector<Connection> TrafficGenerator::arrivals(Time from, Time to) {
  assert(!cfg_.vips.empty());
  std::vector<Connection> out;
  if (next_arrival_ < 0) {
    next_arrival_ =
        from + static_cast<Time>(rng_.exponential(1e9 / cfg_.arrivals_per_sec));
  }
  while (next_arrival_ < to) {
    Connection c;
    c.id = next_id_++;
    c.vip = cfg_.vips[rng_.next_below(cfg_.vips.size())];
    c.rate_bps = rng_.exponential(cfg_.mean_rate_bps);
    c.start = next_arrival_;
    c.end = next_arrival_ +
            static_cast<Time>(rng_.exponential(cfg_.mean_duration_s * 1e9));
    c.tuple.src_ip = kClientNet | static_cast<std::uint32_t>(rng_.next_below(1 << 16));
    c.tuple.dst_ip = kServerNet | static_cast<std::uint32_t>(rng_.next_below(1 << 8));
    c.tuple.src_port = static_cast<std::uint16_t>(1024 + rng_.next_below(60000));
    c.tuple.dst_port = 80;
    c.tuple.proto = 6;
    out.push_back(std::move(c));
    next_arrival_ +=
        static_cast<Time>(rng_.exponential(1e9 / cfg_.arrivals_per_sec));
  }
  return out;
}

}  // namespace raincore::apps
