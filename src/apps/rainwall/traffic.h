// Synthetic web-traffic workload for the Rainwall benchmarks — the
// substitute for the paper's HTTP clients fetching from Apache servers
// through the gateway cluster (§4.2).
//
// Connections arrive as a Poisson process, pick a virtual IP uniformly,
// transfer at a connection rate for an exponentially distributed duration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "apps/rainwall/policy.h"

namespace raincore::apps {

struct Connection {
  std::uint64_t id = 0;
  FiveTuple tuple;
  std::string vip;       ///< advertised cluster address the client used
  double rate_bps = 0;   ///< offered bandwidth while active
  Time start = 0;
  Time end = 0;
};

struct TrafficConfig {
  double arrivals_per_sec = 200.0;
  double mean_duration_s = 2.0;
  double mean_rate_bps = 2e6;       ///< ~2 Mb/s per connection (file download)
  std::vector<std::string> vips;
};

class TrafficGenerator {
 public:
  TrafficGenerator(TrafficConfig cfg, std::uint64_t seed)
      : cfg_(std::move(cfg)), rng_(seed) {}

  /// Generates all connections arriving in [from, to).
  std::vector<Connection> arrivals(Time from, Time to);

  const TrafficConfig& config() const { return cfg_; }

 private:
  TrafficConfig cfg_;
  Rng rng_;
  std::uint64_t next_id_ = 1;
  Time next_arrival_ = -1;
};

}  // namespace raincore::apps
