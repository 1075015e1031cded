#include "session/hierarchical.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace raincore::session {

namespace {
constexpr const char* kMod = "hierarchy";

SessionConfig local_config(const HierarchyConfig& cfg, int ring) {
  SessionConfig s = cfg.session;
  s.eligible = cfg.rings.at(static_cast<std::size_t>(ring));
  s.metrics_prefix = "local.";
  return s;
}

SessionConfig global_config(const HierarchyConfig& cfg) {
  SessionConfig s = cfg.session;
  s.eligible.clear();
  // The global ring runs over the same transport endpoints as the local
  // rings — its eligible set is the real node ids, demuxed by group.
  for (const auto& ring : cfg.rings) {
    for (NodeId n : ring) s.eligible.push_back(n);
  }
  s.metrics_prefix = "global.";
  return s;
}
}  // namespace

HierarchicalNode::HierarchicalNode(net::NodeEnv& env, HierarchyConfig cfg)
    : cfg_(std::move(cfg)),
      my_ring_(cfg_.ring_of(env.node())),
      env_(env),
      mux_(env, cfg_.session.transport),
      local_(mux_.create_ring(kLocalGroup, local_config(cfg_, my_ring_))),
      global_(mux_.create_ring(kGlobalGroup, global_config(cfg_))) {
  assert(my_ring_ >= 0 && "node is not in any configured ring");
  incarnation_ = static_cast<std::uint32_t>(env_.rng().next_u64());

  local_.set_deliver_handler(
      [this](NodeId, const Slice& payload, Ordering) { on_local_deliver(payload); });
  local_.set_view_handler([this](const View& v) { on_local_view(v); });
  global_.set_deliver_handler(
      [this](NodeId, const Slice& payload, Ordering) { on_global_deliver(payload); });
}

void HierarchicalNode::start() {
  assert(!started_);
  started_ = true;
  incarnation_ = static_cast<std::uint32_t>(env_.rng().next_u64());
  // Every node founds a singleton; BODYODOR discovery merges the ring.
  // Starting the ring switches the shared transport back on.
  local_.found();
}

void HierarchicalNode::stop() {
  started_ = false;
  if (grace_timer_) env_.cancel(grace_timer_), grace_timer_ = 0;
  // Crash-stop the whole node: both rings AND the shared transport. A
  // stopped ring over a still-enabled transport would keep acking frames,
  // so peers' token passes would succeed and they would never remove us.
  mux_.set_enabled(false);
  leader_ = false;
}

Slice HierarchicalNode::encode(const WireMsg& m) {
  FrameBuilder w(m.payload.size() + 24);
  w.u32(m.ring);
  w.u32(m.origin);
  w.u32(m.incarnation);
  w.u64(m.seq);
  w.bytes(m.payload);
  return w.finish();
}

bool HierarchicalNode::decode(const Slice& b, WireMsg& m) {
  ByteReader r(b);
  m.ring = r.u32();
  m.origin = r.u32();
  m.incarnation = r.u32();
  m.seq = r.u64();
  m.payload = r.slice();  // aliases the delivered token frame
  return r.ok() && r.at_end();
}

MsgSeq HierarchicalNode::multicast(Slice payload) {
  WireMsg m;
  m.ring = static_cast<std::uint32_t>(my_ring_);
  m.origin = id();
  m.incarnation = incarnation_;
  m.seq = ++next_seq_;
  m.payload = std::move(payload);
  local_.multicast(encode(m));
  return m.seq;
}

bool HierarchicalNode::already_delivered(const WireMsg& m) {
  OriginSeen& s = seen_[m.origin];
  if (s.incarnation != m.incarnation) {
    s = OriginSeen{m.incarnation, 0, {}};
  }
  if (m.seq <= s.watermark || s.above.count(m.seq) > 0) return true;
  s.above.insert(m.seq);
  while (s.above.count(s.watermark + 1) > 0) {
    s.above.erase(s.watermark + 1);
    ++s.watermark;
  }
  // Bound the sparse set against pathological reordering.
  constexpr std::size_t kMaxAbove = 1024;
  while (s.above.size() > kMaxAbove) {
    s.watermark = *s.above.begin();
    s.above.erase(s.above.begin());
  }
  return false;
}

void HierarchicalNode::on_local_deliver(const Slice& payload) {
  WireMsg m;
  if (!decode(payload, m)) return;

  // Leaders bridge their own ring's traffic onto the global ring. This may
  // duplicate across a leadership change; receiver-side dedup absorbs it.
  if (leader_ && m.ring == static_cast<std::uint32_t>(my_ring_)) {
    stats_.forwarded_to_global.inc();
    global_.multicast(payload);
  }

  if (already_delivered(m)) {
    stats_.duplicates_dropped.inc();
    return;
  }
  if (on_deliver_) on_deliver_(m.origin, m.payload);
}

void HierarchicalNode::on_global_deliver(const Slice& payload) {
  WireMsg m;
  if (!decode(payload, m)) return;
  // Remote-ring traffic: inject into our local ring. Delivery (including
  // our own) happens when the injected copy circulates locally, so every
  // ring member — leader included — observes it in local token order.
  if (m.ring == static_cast<std::uint32_t>(my_ring_)) return;  // our own echo
  stats_.injected_from_global.inc();
  local_.multicast(payload);
}

void HierarchicalNode::on_local_view(const View& v) {
  if (!started_ || !v.has(id())) return;
  bool should_lead =
      *std::min_element(v.members.begin(), v.members.end()) == id();
  if (should_lead && !leader_) {
    leader_ = true;
    stats_.leadership_gained.inc();
    RC_INFO(kMod, "node %u becomes leader of ring %d", id(), my_ring_);
    if (global_.started()) {
      global_.cancel_leave();  // re-gained before the old leave completed
    } else if (!grace_timer_) {
      // Hold leadership through the grace period before joining the global
      // ring, so the transient singleton leaders of bootstrap never do.
      grace_timer_ = env_.schedule(cfg_.leader_grace, [this] {
        grace_timer_ = 0;
        if (started_ && leader_ && !global_.started()) global_.found();
      });
    }
  } else if (!should_lead && leader_) {
    leader_ = false;
    stats_.leadership_lost.inc();
    RC_INFO(kMod, "node %u resigns leadership of ring %d", id(), my_ring_);
    if (grace_timer_) env_.cancel(grace_timer_), grace_timer_ = 0;
    if (global_.started()) global_.leave();
  }
}

HierarchyHarness::HierarchyHarness(net::SimNetwork& net, HierarchyConfig cfg)
    : cfg_(std::move(cfg)) {
  for (const auto& ring : cfg_.rings) {
    for (NodeId n : ring) {
      auto& env = net.add_node(n);
      nodes_[n] = std::make_unique<HierarchicalNode>(env, cfg_);
    }
  }
}

void HierarchyHarness::start_all() {
  for (auto& [id, n] : nodes_) n->start();
}

std::vector<NodeId> HierarchyHarness::all_ids() const {
  std::vector<NodeId> out;
  for (auto& [id, n] : nodes_) out.push_back(id);
  return out;
}

}  // namespace raincore::session
