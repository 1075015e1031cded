// The simulated cluster every test, chaos harness and sim bench builds: N
// nodes on one SimNetwork, each a SessionMux (one transport, §2.1) carrying
// K session rings (§2.2) on demux groups 0..K-1. A node's rings are either
// bare, one SessionConfig each, or a ShardedDataPlane, optionally durable.
//
// The Cluster forms the group and waits for it through testing/oracles.h,
// crashes and restarts nodes, wires a ChaosEngine to them, logs every
// bare ring's deliveries and views, and merges the nodes' metrics. Callers
// build their own services over mux(id) or plane(id); a service built over
// a ring (a ChannelMux, say) takes over its deliver and view handlers, so
// that ring's logs stay empty.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "data/shard_router.h"
#include "net/sim_network.h"
#include "session/session_mux.h"
#include "storage/shard_store.h"
#include "testing/chaos.h"
#include "testing/oracles.h"

namespace raincore::testing {

/// Node ids 1..n.
std::vector<NodeId> node_ids(std::size_t n);

class Cluster {
 public:
  /// K bare rings, one config each; their metrics are prefixed "ring<k>."
  /// when K > 1.
  using Rings = std::vector<session::SessionConfig>;
  /// A ShardedDataPlane of `shards` rings built from `ring`. Durable when
  /// `storage.dir` names a root: node i keeps its stores under
  /// <root>/node<i>.
  struct Plane {
    std::size_t shards = 1;
    session::SessionConfig ring = {};
    storage::StorageConfig storage = {};
  };

  /// Nodes are added to the network in the order of `ids` (ascending by
  /// convention: add_node forks the network rng in call order). A ring
  /// whose eligible set is empty gets `ids`; the mux's transport takes the
  /// first ring's `transport` config.
  explicit Cluster(std::vector<NodeId> ids, session::SessionConfig cfg = {},
                   net::SimNetConfig net_cfg = {}, std::uint8_t ifaces = 1);
  Cluster(std::vector<NodeId> ids, Rings rings, net::SimNetConfig net_cfg = {},
          std::uint8_t ifaces = 1);
  Cluster(std::vector<NodeId> ids, Plane plane, net::SimNetConfig net_cfg = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every node by founding each of its rings (each node a
  /// singleton group; discovery merges them). False if a durable node
  /// could not open its stores.
  bool found_all();
  /// Starts the first node by founding its rings, then the rest by joining
  /// each ring through it. False if a durable node could not open its
  /// stores.
  bool bootstrap_via_join();

  /// True iff every ring of every node in `expected` has started and holds
  /// exactly `expected`; other nodes (cut off, crashed) are not consulted.
  bool converged(const std::vector<NodeId>& expected) const;
  /// Runs until converged(expected), checking before every 10 ms step and
  /// once more at the deadline; false if it never held.
  bool run_until_converged(const std::vector<NodeId>& expected, Time timeout);

  /// Crash-stop: every ring stops, the transport goes silent and the node
  /// is marked down. A durable node loses its unsynced WAL tail, as in a
  /// power cut.
  void crash(NodeId id);
  /// Marks the node up and starts it again as a new incarnation: a durable
  /// node first reopens and recovers its stores, then the recover handler
  /// runs, then every ring founds (discovery merges it back). False if the
  /// stores could not be opened.
  bool restart(NodeId id);
  /// Runs after a durable node's stores recovered, before its rings found.
  void set_recover_handler(std::function<void(NodeId)> fn) {
    on_recovered_ = std::move(fn);
  }

  /// Opts into background chaos: an engine, started on demand, whose
  /// crash hook is crash() and whose restart hook is restart() (marking a
  /// node down or up that the engine already marked is a no-op). Call its
  /// start() to begin injecting and stop_and_heal() before asserting
  /// convergence. A harness with its own bookkeeping sets its own hooks
  /// around crash() and restart().
  ChaosEngine& enable_chaos(ChaosConfig chaos_cfg = {});

  void run(Time d) { net_.loop().run_for(d); }
  net::SimNetwork& net() { return net_; }
  const std::vector<NodeId>& ids() const { return ids_; }
  session::SessionMux& mux(NodeId id) { return *nodes_.at(id).mux; }
  /// Ring `ring` of the node (group `ring` on its mux).
  session::SessionNode& node(NodeId id, std::size_t ring = 0);
  /// The node's data plane; plane-shaped clusters only.
  data::ShardedDataPlane& plane(NodeId id) { return *nodes_.at(id).plane; }
  /// Every node's rings, for the checks in testing/oracles.h.
  RingTable rings() const;

  /// Restarts of the node so far (its incarnation).
  std::uint64_t epoch(NodeId id) const { return nodes_.at(id).epoch; }
  /// A bare ring's deliveries; recv_epoch is the node's epoch().
  const std::vector<Delivered>& delivered(NodeId id,
                                          std::size_t ring = 0) const {
    return nodes_.at(id).delivered.at(ring);
  }
  /// A bare ring's views, in the order it installed them.
  const std::vector<session::View>& views(NodeId id,
                                          std::size_t ring = 0) const {
    return nodes_.at(id).views.at(ring);
  }
  /// The delivery logs as testing/oracles.h reads them.
  LogFn log_of() const;

  /// Multicasts a string payload from `from` on ring 0.
  MsgSeq send(NodeId from, const std::string& s,
              session::Ordering o = session::Ordering::kAgreed);
  /// Agreed order on ring 0: the (origin, payload, ordering) sequences of
  /// all started nodes must agree on their common prefix. Returns the first
  /// divergence, or an empty string.
  std::string check_agreed_order() const;

  /// Every node's transport and rings (and stores, when durable) merged.
  metrics::Snapshot metrics_snapshot() const;
  /// Live state of every ring (session::dump_rings), by node id, then ring.
  std::string ring_dump() const;

 private:
  struct Node {
    std::unique_ptr<session::SessionMux> mux;
    std::unique_ptr<data::ShardedDataPlane> plane;
    std::uint64_t epoch = 0;  ///< restarts so far
    std::vector<std::vector<Delivered>> delivered;  ///< per bare ring
    std::vector<std::vector<session::View>> views;  ///< per bare ring
  };

  /// Opens and recovers a durable node's stores, then runs the recover
  /// handler. False if the stores could not be opened.
  bool recover(NodeId id);
  /// A new incarnation: recover, then found every ring.
  bool start(NodeId id);

  net::SimNetwork net_;
  std::vector<NodeId> ids_;
  std::map<NodeId, Node> nodes_;
  std::unique_ptr<ChaosEngine> chaos_;
  std::function<void(NodeId)> on_recovered_;
};

}  // namespace raincore::testing
