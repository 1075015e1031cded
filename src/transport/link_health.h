// EWMA link-health scoring per (peer, interface).
//
// Each link carries a delivery-success score in [0, 1]: 1.0 means every
// recent attempt on the link was acknowledged before its RTO, 0.0 means
// every recent attempt timed out. The score is an exponentially weighted
// moving average over attempt outcomes:
//
//   score = (1 - gain) * score + gain * outcome     (outcome in {0, 1})
//
// so roughly the last 1/gain attempts dominate. The transport feeds it one
// success sample per acknowledged attempt and one failure sample per RTO
// expiry. In adaptive mode kSequential walks the addresses healthiest-first
// (ranked()) instead of always starting at address 0, so a dead primary
// link stops costing a full attempt budget on every transfer (§2.1
// multi-address sending, made adaptive).
//
// Unknown links score 1.0 (optimistic: new links get a chance), and ties
// break toward the lowest interface index so ordering is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace raincore::transport {

class LinkHealth {
 public:
  explicit LinkHealth(double gain = 0.125) : gain_(gain) {}

  void on_success(NodeId peer, std::uint8_t iface) { update(peer, iface, 1.0); }
  void on_timeout(NodeId peer, std::uint8_t iface) { update(peer, iface, 0.0); }

  /// Current score; 1.0 for links never sampled.
  double score(NodeId peer, std::uint8_t iface) const;
  /// Lowest score over every sampled link; 1.0 when none was sampled.
  double worst() const;

  /// All interface indices [0, n_ifaces) ordered healthiest-first; the sort
  /// is stable so equal scores keep ascending index order.
  std::vector<std::uint8_t> ranked(NodeId peer, std::uint8_t n_ifaces) const;

  void forget(NodeId peer);
  std::size_t tracked() const { return links_.size(); }

 private:
  void update(NodeId peer, std::uint8_t iface, double outcome);

  double gain_;
  std::map<std::pair<NodeId, std::uint8_t>, double> links_;
};

}  // namespace raincore::transport
