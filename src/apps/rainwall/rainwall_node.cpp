#include "apps/rainwall/rainwall_node.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/log.h"

namespace raincore::apps {

namespace {
constexpr const char* kMod = "rainwall";
}

RainwallNode::RainwallNode(net::NodeEnv& env, Subnet& subnet, RainwallConfig cfg)
    : env_(env),
      cfg_(std::move(cfg)),
      node_(env, cfg_.session.transport),
      session_(node_.create_ring(0, cfg_.session)),
      mux_(session_),
      subnet_(subnet),
      policy_(cfg_.default_policy),
      vips_(mux_, subnet, VipConfig{cfg_.vip_pool, cfg_.vip_channel}),
      conn_table_(mux_, cfg_.conn_channel),
      engine_(cfg_.engine, policy_),
      monitor_(env, cfg_.health_interval) {
  conn_table_.set_change_handler(
      [this](const std::string& key, const std::optional<std::string>& value,
             NodeId origin) { on_conn_change(key, value, origin); });
  mux_.subscribe_views([this](const session::View& v) { on_view(v); });
  monitor_.set_failure_handler([this](const std::string& name) {
    RC_WARN(kMod, "node %u: critical resource '%s' failed; shutting down",
            id(), name.c_str());
    shutdown();
  });
}

void RainwallNode::start_founder() {
  session_.found();
  monitor_.start();
}

void RainwallNode::start_join(std::vector<NodeId> contacts) {
  session_.join(std::move(contacts));
  monitor_.start();
}

void RainwallNode::shutdown() {
  monitor_.stop();
  session_.leave();
}

std::string RainwallNode::encode_conn(const Connection& c, NodeId assignee) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%u|%llu|%.0f|%lld|%s|%u|%u|%u|%u|%u",
                assignee, static_cast<unsigned long long>(c.id), c.rate_bps,
                static_cast<long long>(c.end), c.vip.c_str(), c.tuple.src_ip,
                c.tuple.dst_ip, c.tuple.src_port, c.tuple.dst_port,
                c.tuple.proto);
  return buf;
}

bool RainwallNode::decode_conn(const std::string& s, Connection& c,
                               NodeId& assignee) {
  unsigned node = 0, sip = 0, dip = 0, sport = 0, dport = 0, proto = 0;
  unsigned long long cid = 0;
  long long end = 0;
  double rate = 0;
  char vip[64] = {0};
  int n = std::sscanf(s.c_str(), "%u|%llu|%lf|%lld|%63[^|]|%u|%u|%u|%u|%u",
                      &node, &cid, &rate, &end, vip, &sip, &dip, &sport,
                      &dport, &proto);
  if (n != 10) return false;
  assignee = node;
  c.id = cid;
  c.rate_bps = rate;
  c.end = end;
  c.vip = vip;
  c.tuple = FiveTuple{sip, dip, static_cast<std::uint16_t>(sport),
                      static_cast<std::uint16_t>(dport),
                      static_cast<std::uint8_t>(proto)};
  return true;
}

NodeId RainwallNode::least_loaded() const {
  // Load = offered bandwidth per member, derived from the shared
  // connection table so every owner sees the same picture.
  std::map<NodeId, double> load;
  for (NodeId n : session_.view().members) load[n] = 0;
  for (const auto& [key, value] : conn_table_.contents()) {
    Connection c;
    NodeId assignee;
    if (!decode_conn(value, c, assignee)) continue;
    auto it = load.find(assignee);
    if (it != load.end()) it->second += c.rate_bps;
  }
  NodeId best = id();
  double best_load = 1e300;
  for (auto& [n, l] : load) {
    if (l < best_load) {
      best = n;
      best_load = l;
    }
  }
  return best;
}

void RainwallNode::on_new_connection(const Connection& c) {
  if (!active()) return;
  if (policy_.evaluate(c.tuple) == Action::kDeny) return;
  NodeId target = least_loaded();
  conn_table_.put("conn/" + std::to_string(c.id), encode_conn(c, target));
}

void RainwallNode::on_conn_change(const std::string& key,
                                  const std::optional<std::string>& value,
                                  NodeId) {
  if (key.rfind("conn/", 0) != 0) {
    if (key.empty()) {
      // Snapshot applied: rebuild engine state from the full table.
      for (const auto& [k, v] : conn_table_.contents()) {
        on_conn_change(k, v, kInvalidNode);
      }
    }
    return;
  }
  std::uint64_t cid = std::strtoull(key.c_str() + 5, nullptr, 10);
  if (!value) {
    engine_.remove(cid);
    return;
  }
  Connection c;
  NodeId assignee;
  if (!decode_conn(*value, c, assignee)) return;
  if (assignee == id()) {
    if (!engine_.has(cid)) engine_.admit(c);
  } else {
    engine_.remove(cid);
  }
  // An assignment made while its assignee was still in the sender's view
  // can be applied after that node left — after on_view's fail-over pass
  // has already run — so the apply point must fail it over too.
  reassign_if_orphaned(session_.view(), key, c, assignee);
}

void RainwallNode::on_view(const session::View& v) {
  // Fail-over of connections: every connection assigned to a node that
  // left the view is re-assigned.
  for (const auto& [key, value] : conn_table_.contents()) {
    Connection c;
    NodeId assignee;
    if (decode_conn(value, c, assignee)) {
      reassign_if_orphaned(v, key, c, assignee);
    }
  }
}

void RainwallNode::reassign_if_orphaned(const session::View& v,
                                        const std::string& key,
                                        const Connection& c, NodeId assignee) {
  if (!v.has(id()) || v.has(assignee)) return;
  auto vip_owner = vips_.owner_of(c.vip);
  // The VIP may itself be orphaned mid-failover; the lowest member steps
  // in so connections are never stranded.
  NodeId responsible =
      (vip_owner && v.has(*vip_owner))
          ? *vip_owner
          : *std::min_element(v.members.begin(), v.members.end());
  if (responsible != id()) return;
  conn_table_.put(key, encode_conn(c, least_loaded()));
}

std::uint64_t RainwallNode::tick(Time dt) {
  if (!active()) return 0;
  // Expire finished connections we serve (the VIP owner erases table rows).
  std::vector<std::string> expired;
  for (const auto& [key, value] : conn_table_.contents()) {
    Connection c;
    NodeId assignee;
    if (!decode_conn(value, c, assignee)) continue;
    if (c.end <= env_.now() && assignee == id()) {
      engine_.remove(c.id);
      expired.push_back(key);
    }
  }
  for (const std::string& key : expired) conn_table_.erase(key);

  std::uint64_t ts = node_.transport().task_switches().value();
  std::uint64_t delta = ts - last_task_switches_;
  last_task_switches_ = ts;
  return engine_.tick(dt, delta);
}

}  // namespace raincore::apps
