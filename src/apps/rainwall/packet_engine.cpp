#include "apps/rainwall/packet_engine.h"

#include <algorithm>

namespace raincore::apps {

namespace {
constexpr double kNicBps = 100e6;     ///< Fast Ethernet line rate
constexpr double kPktBytes = 1000.0;  ///< average packet size
/// CPU time to forward one packet through filter + route + two DMA rings:
/// ~84 µs/pkt (≈30k cycles at 360 MHz) caps forwarding of 1000-byte
/// packets at ≈95 Mb/s at 100% CPU — the gateway is CPU-limited just below
/// NIC line rate, as in the paper's testbed.
constexpr double kCpuPerPktNs = 84000.0;
/// CPU time lost per group-communication task switch (context save,
/// cache/TLB disturbance). §4.1: "switching between the traffic processing
/// and group communication has significant latency cost".
constexpr double kTaskSwitchNs = 100000.0;
}  // namespace

bool PacketEngine::admit(const Connection& c) {
  if (policy_->evaluate(c.tuple) == Action::kDeny) {
    conns_denied_.inc();
    return false;
  }
  active_[c.id] = c;
  return true;
}

void PacketEngine::remove(std::uint64_t conn_id) { active_.erase(conn_id); }

double PacketEngine::offered_bps() const {
  double sum = 0;
  for (const auto& [id, c] : active_) sum += c.rate_bps;
  return sum;
}

std::uint64_t PacketEngine::tick(Time dt, std::uint64_t gc_task_switches) {
  const double dt_s = to_seconds(dt);
  if (dt_s <= 0) return 0;

  const double offered = offered_bps();
  const double offered_bytes = offered * dt_s / 8.0;

  // CPU budget for this interval, minus group-communication servicing.
  const double cpu_ns_total = static_cast<double>(dt);
  const double gc_ns = static_cast<double>(gc_task_switches) * kTaskSwitchNs;
  const double cpu_ns_for_traffic = std::max(0.0, cpu_ns_total - gc_ns);

  // CPU-limited forwarding capacity.
  const double cpu_pkts = cpu_ns_for_traffic / kCpuPerPktNs;
  const double cpu_bytes = cpu_pkts * kPktBytes;
  // NIC-limited capacity.
  const double nic_bytes = kNicBps * dt_s / 8.0;

  const double capacity_bytes = std::min(cpu_bytes, nic_bytes);
  const double forwarded = std::min(offered_bytes, capacity_bytes);

  const double pkts = forwarded / kPktBytes;
  bytes_forwarded_.inc(static_cast<std::uint64_t>(forwarded));
  pkts_forwarded_.inc(static_cast<std::uint64_t>(pkts));

  const double traffic_ns = pkts * kCpuPerPktNs;
  last_cpu_util_ = std::min(1.0, (traffic_ns + gc_ns) / cpu_ns_total);
  last_gc_cpu_ = std::min(1.0, gc_ns / cpu_ns_total);
  cpu_util_gauge_.set(last_cpu_util_);
  gc_cpu_gauge_.set(last_gc_cpu_);
  return static_cast<std::uint64_t>(forwarded);
}

}  // namespace raincore::apps
