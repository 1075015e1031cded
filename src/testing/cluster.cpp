#include "testing/cluster.h"

#include <algorithm>

namespace raincore::testing {

std::vector<NodeId> node_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= n; ++id) ids.push_back(id);
  return ids;
}

Cluster::Cluster(std::vector<NodeId> ids, session::SessionConfig cfg,
                 net::SimNetConfig net_cfg, std::uint8_t ifaces)
    : Cluster(std::move(ids), Rings{std::move(cfg)}, net_cfg, ifaces) {}

Cluster::Cluster(std::vector<NodeId> ids, Rings rings,
                 net::SimNetConfig net_cfg, std::uint8_t ifaces)
    : net_(net_cfg), ids_(std::move(ids)) {
  for (std::size_t k = 0; k < rings.size(); ++k) {
    if (rings[k].eligible.empty()) rings[k].eligible = ids_;
    if (rings.size() > 1) {
      rings[k].metrics_prefix = "ring" + std::to_string(k) + ".";
    }
  }
  for (NodeId id : ids_) {
    Node& n = nodes_[id];
    n.mux = std::make_unique<session::SessionMux>(net_.add_node(id, ifaces),
                                                  rings.front().transport);
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
                 net::SimNetConfig net_cfg)
    : net_(net_cfg), ids_(std::move(ids)) {
  if (plane.ring.eligible.empty()) plane.ring.eligible = ids_;
  for (NodeId id : ids_) {
    Node& n = nodes_[id];
    n.mux = std::make_unique<session::SessionMux>(net_.add_node(id),
                                                  plane.ring.transport);
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
  if (!plane->open_storage()) return false;
  plane->recover_storage();
  if (on_recovered_) on_recovered_(id);
  return true;
}

void Cluster::stop(NodeId id) {
  Node& n = nodes_.at(id);
  if (n.plane) n.plane->crash_storage();
  n.mux->set_enabled(false);
}

bool Cluster::start(NodeId id) {
  if (!recover(id)) return false;
  mux(id).for_each_ring(
      [](transport::MuxGroup, session::SessionNode& r) { r.found(); });
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
  stop(id);
  net_.set_node_up(id, false);
}

bool Cluster::restart(NodeId id) {
  net_.set_node_up(id, true);
  ++nodes_.at(id).epoch;
  return start(id);
}

ChaosEngine& Cluster::enable_chaos(ChaosConfig chaos_cfg) {
  if (!chaos_) {
    chaos_ = std::make_unique<ChaosEngine>(net_, ids_, chaos_cfg);
    chaos_->set_crash_hook([this](NodeId id) { stop(id); });
    chaos_->set_restart_hook([this](NodeId id) {
      ++nodes_.at(id).epoch;
      start(id);
    });
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

metrics::Snapshot Cluster::metrics_snapshot() const {
  metrics::Snapshot out;
  for (const auto& [id, n] : nodes_) {
    out.merge(n.mux->metrics_snapshot());
    if (n.plane) out.merge(n.plane->storage_snapshot());
  }
  return out;
}

}  // namespace raincore::testing
