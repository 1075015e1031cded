#include "testing/cluster.h"

#include <algorithm>

#include "session/introspect.h"

namespace raincore::testing {

std::vector<NodeId> node_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= n; ++id) ids.push_back(id);
  return ids;
}

Cluster::Cluster(std::vector<NodeId> ids, session::SessionConfig cfg,
                 net::SimNetConfig net_cfg, transport::TransportConfig tcfg,
                 std::uint8_t ifaces)
    : Cluster(std::move(ids), Rings{std::move(cfg)}, net_cfg, tcfg, ifaces) {}

Cluster::Cluster(std::vector<NodeId> ids, Rings rings,
                 net::SimNetConfig net_cfg, transport::TransportConfig tcfg,
                 std::uint8_t ifaces)
    : net_(net_cfg), ids_(std::move(ids)) {
  for (std::size_t k = 0; k < rings.size(); ++k) {
    if (rings[k].eligible.empty()) rings[k].eligible = ids_;
    if (rings.size() > 1) {
      rings[k].metrics_prefix = "ring" + std::to_string(k) + ".";
    }
  }
  for (NodeId id : ids_) {
    Node& n = nodes_[id];
    n.mux =
        std::make_unique<session::SessionMux>(net_.add_node(id, ifaces), tcfg);
    n.delivered.resize(rings.size());
    n.views.resize(rings.size());
    for (std::size_t k = 0; k < rings.size(); ++k) {
      session::SessionNode& ring =
          n.mux->create_ring(static_cast<transport::MuxGroup>(k), rings[k]);
      ring.set_deliver_handler([&n, k](NodeId origin, const Slice& payload,
                                       session::Ordering o) {
        n.delivered[k].push_back(
            {n.epoch, origin, std::string(payload.begin(), payload.end()), o});
      });
      ring.set_view_handler(
          [&n, k](const session::View& v) { n.views[k].push_back(v); });
    }
  }
}

Cluster::Cluster(std::vector<NodeId> ids, Plane plane,
                 net::SimNetConfig net_cfg, transport::TransportConfig tcfg)
    : net_(net_cfg), ids_(std::move(ids)) {
  if (plane.ring.eligible.empty()) plane.ring.eligible = ids_;
  for (NodeId id : ids_) {
    Node& n = nodes_[id];
    n.mux = std::make_unique<session::SessionMux>(net_.add_node(id), tcfg);
    storage::StorageConfig storage = plane.storage;
    if (!storage.dir.empty()) storage.dir += "/node" + std::to_string(id);
    n.plane = std::make_unique<data::ShardedDataPlane>(*n.mux, plane.shards,
                                                       plane.ring, storage);
  }
}

bool Cluster::recover(NodeId id) {
  data::ShardedDataPlane* plane = nodes_.at(id).plane.get();
  if (!plane || !plane->durable()) return true;
  // found() installs the founding view at once, and that view adopts the
  // recovered state, so recovery must come first.
  for (std::size_t k = 0; k < plane->shard_count(); ++k) {
    if (shard_down(k)) continue;
    if (!plane->open_store(k)) return false;
    plane->recover_store(k);
  }
  if (on_recovered_) on_recovered_(id);
  return true;
}

bool Cluster::start(NodeId id) {
  if (!recover(id)) return false;
  mux(id).for_each_ring([this](transport::MuxGroup g, session::SessionNode& r) {
    if (!shard_down(g)) r.found();
  });
  return true;
}

bool Cluster::found_all() {
  bool ok = true;
  for (NodeId id : ids_) ok = start(id) && ok;
  return ok;
}

bool Cluster::bootstrap_via_join() {
  const NodeId seed = ids_.front();
  bool ok = start(seed);
  for (NodeId id : ids_) {
    if (id == seed) continue;
    ok = recover(id) && ok;
    mux(id).for_each_ring([seed](transport::MuxGroup, session::SessionNode& r) {
      r.join({seed});
    });
  }
  return ok;
}

bool Cluster::converged(const std::vector<NodeId>& expected) const {
  return rings_converged(rings(), expected);
}

bool Cluster::run_until_converged(const std::vector<NodeId>& expected,
                                  Time timeout) {
  return run_until(net_.loop(), timeout, [&] { return converged(expected); }) ||
         converged(expected);
}

void Cluster::crash(NodeId id) {
  Node& n = nodes_.at(id);
  if (n.plane) n.plane->crash_storage();
  n.mux->set_enabled(false);
  net_.set_node_up(id, false);
}

bool Cluster::restart(NodeId id) {
  net_.set_node_up(id, true);
  ++nodes_.at(id).epoch;
  mux(id).set_enabled(true);  // even if every shard is down
  return start(id);
}

void Cluster::crash_shard(std::size_t k) {
  if (!shards_down_.insert(k).second) return;
  for (auto& [id, n] : nodes_) {
    if (!up(id) || k >= n.plane->shard_count()) continue;
    n.plane->crash_store(k);
    n.plane->ring(k).stop();
  }
}

void Cluster::restart_shard(std::size_t k) {
  if (shards_down_.erase(k) == 0) return;
  for (auto& [id, n] : nodes_) {
    if (!up(id) || k >= n.plane->shard_count()) continue;
    n.plane->open_store(k);
    n.plane->recover_store(k);
    if (on_recovered_) on_recovered_(id);
    n.plane->ring(k).found();
  }
}

ChaosEngine& Cluster::enable_chaos(ChaosConfig chaos_cfg) {
  if (!chaos_) {
    chaos_ = std::make_unique<ChaosEngine>(net_, ids_, chaos_cfg);
    chaos_->set_crash_hook([this](NodeId id) { crash(id); });
    chaos_->set_restart_hook([this](NodeId id) { restart(id); });
  }
  return *chaos_;
}

session::SessionNode& Cluster::node(NodeId id, std::size_t ring) {
  return *mux(id).ring(static_cast<transport::MuxGroup>(ring));
}

RingTable Cluster::rings() const {
  RingTable out;
  for (const auto& [id, n] : nodes_) {
    auto& rings = out[id];
    n.mux->for_each_ring(
        [&rings](transport::MuxGroup, session::SessionNode& r) {
          rings.push_back(&r);
        });
  }
  return out;
}

LogFn Cluster::log_of() const {
  return [this](NodeId id, std::size_t ring) -> const std::vector<Delivered>& {
    return delivered(id, ring);
  };
}

MsgSeq Cluster::send(NodeId from, const std::string& s, session::Ordering o) {
  return node(from).multicast(Bytes(s.begin(), s.end()), o);
}

std::string Cluster::check_agreed_order() const {
  const std::vector<Delivered>* ref = nullptr;
  NodeId ref_id = 0;
  for (const auto& [id, n] : nodes_) {
    if (!n.mux->ring(0)->started()) continue;
    const std::vector<Delivered>& mine = n.delivered.front();
    if (!ref) {
      ref = &mine;
      ref_id = id;
      continue;
    }
    const std::size_t upto = std::min(ref->size(), mine.size());
    for (std::size_t i = 0; i < upto; ++i) {
      const Delivered& a = (*ref)[i];
      const Delivered& b = mine[i];
      if (a.origin != b.origin || a.payload != b.payload ||
          a.ordering != b.ordering) {
        return "divergence at index " + std::to_string(i) + " between node " +
               std::to_string(ref_id) + " and node " + std::to_string(id);
      }
    }
  }
  return {};
}

std::string Cluster::ring_dump() const {
  std::vector<const session::SessionNode*> all;
  for (const auto& [id, node_rings] : rings()) {
    all.insert(all.end(), node_rings.begin(), node_rings.end());
  }
  return session::dump_rings(all);
}

metrics::Snapshot Cluster::metrics_snapshot() const {
  metrics::Snapshot out;
  for (const auto& [id, n] : nodes_) {
    out.merge(n.mux->metrics_snapshot());
    if (n.plane) out.merge(n.plane->storage_snapshot());
  }
  return out;
}

}  // namespace raincore::testing
