#include "transport/link_health.h"

#include <algorithm>
#include <numeric>

namespace raincore::transport {

void LinkHealth::update(NodeId peer, std::uint8_t iface, double outcome) {
  auto [it, inserted] = links_.try_emplace({peer, iface}, 1.0);
  it->second = (1.0 - gain_) * it->second + gain_ * outcome;
}

double LinkHealth::score(NodeId peer, std::uint8_t iface) const {
  auto it = links_.find({peer, iface});
  return it != links_.end() ? it->second : 1.0;
}

std::vector<std::uint8_t> LinkHealth::ranked(NodeId peer,
                                             std::uint8_t n_ifaces) const {
  std::vector<std::uint8_t> order(n_ifaces);
  std::iota(order.begin(), order.end(), std::uint8_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint8_t a, std::uint8_t b) {
                     return score(peer, a) > score(peer, b);
                   });
  return order;
}

void LinkHealth::forget(NodeId peer) {
  auto it = links_.lower_bound({peer, 0});
  while (it != links_.end() && it->first.first == peer) {
    it = links_.erase(it);
  }
}

}  // namespace raincore::transport
