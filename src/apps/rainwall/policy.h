// Firewall security policy: "a firewall is essentially a router that
// filters traffic according to a security policy" (§3.2). First-match rule
// evaluation over 5-tuples, CIDR-style address masks, port ranges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace raincore::apps {

struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 6;  // TCP
};

enum class Action : std::uint8_t { kAllow, kDeny };

struct Rule {
  Action action = Action::kAllow;
  std::uint32_t src_net = 0, src_mask = 0;  ///< mask 0 = any
  std::uint32_t dst_net = 0, dst_mask = 0;
  std::uint16_t dport_lo = 0, dport_hi = 65535;
  std::uint8_t proto = 0;  ///< 0 = any

  bool matches(const FiveTuple& t) const {
    if ((t.src_ip & src_mask) != (src_net & src_mask)) return false;
    if ((t.dst_ip & dst_mask) != (dst_net & dst_mask)) return false;
    if (t.dst_port < dport_lo || t.dst_port > dport_hi) return false;
    if (proto != 0 && proto != t.proto) return false;
    return true;
  }
};

/// Parses dotted-quad "a.b.c.d" into a host-order u32; returns 0 on error.
std::uint32_t parse_ip(const std::string& s);
/// Formats a host-order u32 as dotted quad.
std::string format_ip(std::uint32_t ip);

class FirewallPolicy {
 public:
  explicit FirewallPolicy(Action default_action = Action::kDeny)
      : default_action_(default_action) {}

  void add_rule(Rule r) { rules_.push_back(r); }

  Action evaluate(const FiveTuple& t) const {
    for (const Rule& r : rules_) {
      if (r.matches(t)) {
        if (r.action == Action::kDeny) denies_.inc();
        return r.action;
      }
    }
    if (default_action_ == Action::kDeny) denies_.inc();
    return default_action_;
  }

  const Counter& denies() const { return denies_; }

 private:
  Action default_action_;
  std::vector<Rule> rules_;
  mutable Counter denies_;
};

}  // namespace raincore::apps
