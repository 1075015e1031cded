#include "net/sim_network.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace raincore::net {

namespace {

// API-boundary validation (assert in debug, clamp in release): a fault
// schedule can never configure a probability outside [0,1] or negative time.
double valid_prob(double p) {
  assert(p >= 0.0 && p <= 1.0 && "probability must be in [0,1]");
  return std::clamp(p, 0.0, 1.0);
}

Time valid_time(Time t) {
  assert(t >= 0 && "latency/jitter must be non-negative");
  return std::max<Time>(t, 0);
}

}  // namespace

class SimNetwork::SimNodeEnv final : public NodeEnv {
 public:
  SimNodeEnv(SimNetwork& net, NodeId id, std::uint8_t n_ifaces, Rng rng)
      : NodeEnv(net.loop_, rng), net_(net), id_(id), n_ifaces_(n_ifaces) {}

  NodeId node() const override { return id_; }
  std::uint8_t iface_count() const override { return n_ifaces_; }

  void send(const Address& to, Slice payload, std::uint8_t from_iface) override {
    assert(from_iface < n_ifaces_);
    Datagram d;
    d.src = Address{id_, from_iface};
    d.dst = to;
    d.payload = std::move(payload);
    net_.do_send(std::move(d));
  }

  void set_receiver(ReceiveFn fn) override { receiver_ = std::move(fn); }

  void deliver(Datagram&& d) {
    if (receiver_) receiver_(std::move(d));
  }

 private:
  SimNetwork& net_;
  NodeId id_;
  std::uint8_t n_ifaces_;
  ReceiveFn receiver_;
};

SimNetwork::SimNetwork(SimNetConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  cfg_.default_drop = valid_prob(cfg_.default_drop);
  cfg_.default_duplicate = valid_prob(cfg_.default_duplicate);
  cfg_.default_corrupt = valid_prob(cfg_.default_corrupt);
  cfg_.default_latency = valid_time(cfg_.default_latency);
  cfg_.default_jitter = valid_time(cfg_.default_jitter);
}
SimNetwork::~SimNetwork() = default;

NodeEnv& SimNetwork::add_node(NodeId id, std::uint8_t n_ifaces) {
  assert(n_ifaces >= 1);
  auto [it, inserted] = nodes_.try_emplace(
      id, std::make_unique<SimNodeEnv>(*this, id, n_ifaces, rng_.fork()));
  assert(inserted && "duplicate node id");
  node_up_[id] = true;
  return *it->second;
}

bool SimNetwork::has_node(NodeId id) const { return nodes_.count(id) > 0; }

void SimNetwork::set_link_up(NodeId a, NodeId b, bool up, bool bidirectional) {
  node_links_[{a, b}].up = up;
  if (bidirectional) node_links_[{b, a}].up = up;
}

void SimNetwork::set_link_up(const Address& a, const Address& b, bool up,
                             bool bidirectional) {
  addr_links_[{a.key(), b.key()}].up = up;
  if (bidirectional) addr_links_[{b.key(), a.key()}].up = up;
}

void SimNetwork::set_drop_rate(NodeId a, NodeId b, double p, bool bidirectional) {
  p = valid_prob(p);
  node_links_[{a, b}].drop = p;
  if (bidirectional) node_links_[{b, a}].drop = p;
}

void SimNetwork::set_latency(NodeId a, NodeId b, Time latency, Time jitter,
                             bool bidirectional) {
  latency = valid_time(latency);
  jitter = valid_time(jitter);
  node_links_[{a, b}].latency = latency;
  node_links_[{a, b}].jitter = jitter;
  if (bidirectional) {
    node_links_[{b, a}].latency = latency;
    node_links_[{b, a}].jitter = jitter;
  }
}

void SimNetwork::set_duplicate_rate(NodeId a, NodeId b, double p,
                                    bool bidirectional) {
  p = valid_prob(p);
  node_links_[{a, b}].duplicate = p;
  if (bidirectional) node_links_[{b, a}].duplicate = p;
}

void SimNetwork::set_corrupt_rate(NodeId a, NodeId b, double p,
                                  bool bidirectional) {
  p = valid_prob(p);
  node_links_[{a, b}].corrupt = p;
  if (bidirectional) node_links_[{b, a}].corrupt = p;
}

void SimNetwork::set_preserve_order(NodeId a, NodeId b, bool preserve,
                                    bool bidirectional) {
  node_links_[{a, b}].preserve_order = preserve;
  if (bidirectional) node_links_[{b, a}].preserve_order = preserve;
}

void SimNetwork::clear_link_overrides(NodeId a, NodeId b, bool bidirectional) {
  node_links_.erase({a, b});
  if (bidirectional) node_links_.erase({b, a});
}

void SimNetwork::set_node_up(NodeId id, bool up) { node_up_[id] = up; }

bool SimNetwork::node_up(NodeId id) const {
  auto it = node_up_.find(id);
  return it != node_up_.end() && it->second;
}

void SimNetwork::partition(std::vector<std::vector<NodeId>> groups) {
  partitions_ = std::move(groups);
}

void SimNetwork::heal_partition() { partitions_.clear(); }

bool SimNetwork::crosses_partition(NodeId a, NodeId b) const {
  if (partitions_.empty()) return false;
  int ga = -1, gb = -1;
  for (std::size_t g = 0; g < partitions_.size(); ++g) {
    for (NodeId n : partitions_[g]) {
      if (n == a) ga = static_cast<int>(g);
      if (n == b) gb = static_cast<int>(g);
    }
  }
  // Unlisted nodes remain reachable from everywhere.
  if (ga < 0 || gb < 0) return false;
  return ga != gb;
}

SimNetwork::EffectiveLink SimNetwork::resolve(const Address& src,
                                              const Address& dst) const {
  EffectiveLink e{true,
                  cfg_.default_drop,
                  cfg_.default_latency,
                  cfg_.default_jitter,
                  cfg_.default_duplicate,
                  cfg_.default_corrupt,
                  cfg_.preserve_order};
  auto apply = [&e](const LinkOverride& o) {
    if (o.up) e.up = *o.up;
    if (o.drop) e.drop = *o.drop;
    if (o.latency) e.latency = *o.latency;
    if (o.jitter) e.jitter = *o.jitter;
    if (o.duplicate) e.duplicate = *o.duplicate;
    if (o.corrupt) e.corrupt = *o.corrupt;
    if (o.preserve_order) e.preserve_order = *o.preserve_order;
  };
  // Precedence: node-pair override first, then the more specific
  // address-pair override on top (see header).
  if (auto it = node_links_.find({src.node, dst.node}); it != node_links_.end()) {
    apply(it->second);
  }
  if (auto it = addr_links_.find({src.key(), dst.key()}); it != addr_links_.end()) {
    apply(it->second);
  }
  return e;
}

void SimNetwork::schedule_delivery(Datagram&& d, const EffectiveLink& link,
                                   SimNodeEnv* dst) {
  Time delay = link.latency;
  if (link.jitter > 0) delay += rng_.uniform(0, link.jitter);
  Time when = loop_.now() + delay;
  auto key = std::make_pair(d.src.key(), d.dst.key());
  Time& last = last_delivery_[key];
  if (link.preserve_order) {
    if (when < last) when = last;
  } else if (when < last) {
    // This copy will overtake an earlier-sent packet on the same pair.
    stats_[d.dst.node].pkts_reordered.inc();
  }
  last = std::max(last, when);

  loop_.schedule_at(when, [this, dst, d = std::move(d)]() mutable {
    // Re-check reachability at delivery time: a link cut or node failure
    // that happens while the packet is in flight loses the packet, exactly
    // like pulling a cable.
    if (!node_up(d.src.node) || !node_up(d.dst.node)) return;
    if (crosses_partition(d.src.node, d.dst.node)) return;
    if (!resolve(d.src, d.dst).up) return;
    NodeStats& s = stats_[d.dst.node];
    s.pkts_recv.inc();
    s.bytes_recv.inc(d.payload.size());
    dst->deliver(std::move(d));
  });
}

void SimNetwork::do_send(Datagram&& d) {
  NodeStats& src_stats = stats_[d.src.node];
  src_stats.pkts_sent.inc();
  src_stats.bytes_sent.inc(d.payload.size());

  auto drop = [&] { src_stats.pkts_dropped.inc(); };

  if (!node_up(d.src.node) || !node_up(d.dst.node)) return drop();
  if (crosses_partition(d.src.node, d.dst.node)) return drop();
  auto dst_it = nodes_.find(d.dst.node);
  if (dst_it == nodes_.end()) return drop();

  EffectiveLink link = resolve(d.src, d.dst);
  if (!link.up) return drop();
  if (link.drop > 0.0 && rng_.chance(link.drop)) return drop();

  SimNodeEnv* dst = dst_it->second.get();
  int copies = 1;
  if (link.duplicate > 0.0 && rng_.chance(link.duplicate)) {
    copies = 2;
    src_stats.pkts_duplicated.inc();
  }
  for (int i = 0; i < copies; ++i) {
    // Duplicates share the payload storage — copying a Datagram only bumps
    // the slice refcount.
    Datagram c = (i + 1 < copies) ? d : std::move(d);
    if (link.corrupt > 0.0 && !c.payload.empty() && rng_.chance(link.corrupt)) {
      // Copy-on-write: the sender's retained retry buffer (and any
      // duplicate in flight) aliases this payload, so an in-flight bit
      // flip must never write through the shared storage.
      Slice mut = std::move(c.payload).cow();
      int flips = 1 + static_cast<int>(rng_.next_below(4));
      for (int k = 0; k < flips; ++k) {
        mut.mutable_data()[rng_.next_below(mut.size())] ^=
            static_cast<std::uint8_t>(1u << rng_.next_below(8));
      }
      c.payload = std::move(mut);
      src_stats.pkts_corrupted.inc();
    }
    schedule_delivery(std::move(c), link, dst);
  }
}

const SimNetwork::NodeStats& SimNetwork::stats(NodeId id) const {
  return stats_[id];
}

SimNetwork::NodeStats SimNetwork::totals() const {
  NodeStats t;
  for (const auto& [id, s] : stats_) {
    t.pkts_sent.inc(s.pkts_sent.value());
    t.pkts_recv.inc(s.pkts_recv.value());
    t.bytes_sent.inc(s.bytes_sent.value());
    t.bytes_recv.inc(s.bytes_recv.value());
    t.pkts_dropped.inc(s.pkts_dropped.value());
    t.pkts_duplicated.inc(s.pkts_duplicated.value());
    t.pkts_corrupted.inc(s.pkts_corrupted.value());
    t.pkts_reordered.inc(s.pkts_reordered.value());
  }
  return t;
}

void SimNetwork::reset_stats() { stats_.clear(); }

}  // namespace raincore::net
