// Shared test/bench harness: a simulated cluster of one-ring SessionMux
// nodes with recorded deliveries and views. Convergence is judged and
// waited for by testing/oracles.h, as in the chaos harnesses.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/sim_network.h"
#include "session/session_mux.h"
#include "testing/chaos.h"
#include "testing/oracles.h"

namespace raincore::testing {

struct Delivery {
  NodeId origin;
  std::string payload;
  session::Ordering ordering;

  bool operator==(const Delivery&) const = default;
};

class TestCluster {
 public:
  explicit TestCluster(std::vector<NodeId> ids,
                       session::SessionConfig cfg = {},
                       net::SimNetConfig net_cfg = {},
                       std::uint8_t ifaces = 1)
      : net_(net_cfg), cfg_(std::move(cfg)) {
    cfg_.eligible = ids;
    for (NodeId id : ids) {
      auto& env = net_.add_node(id, ifaces);
      auto mux = std::make_unique<session::SessionMux>(env, cfg_.transport);
      session::SessionNode* node = &mux->create_ring(0, cfg_);
      node->set_deliver_handler(
          [this, id](NodeId origin, const Slice& payload, session::Ordering o) {
            deliveries_[id].push_back(
                Delivery{origin, std::string(payload.begin(), payload.end()), o});
          });
      node->set_view_handler([this, id](const session::View& v) {
        views_[id].push_back(v);
      });
      rings_[id] = {node};
      muxes_[id] = std::move(mux);
    }
  }

  /// Founds every node (each a singleton group); discovery merges them.
  void found_all() {
    for (auto& [id, rings] : rings_) rings.front()->found();
  }

  /// Founds the first node and joins the rest through it.
  void bootstrap_via_join() {
    auto it = rings_.begin();
    NodeId seed = it->first;
    it->second.front()->found();
    for (++it; it != rings_.end(); ++it) it->second.front()->join({seed});
  }

  void run(Time d) { net_.loop().run_for(d); }

  /// Opts this cluster into background chaos: returns a started-on-demand
  /// engine whose crash/restart hooks drive the cluster's nodes (crash =
  /// crash-stop, restart = re-found as a new incarnation; discovery merges
  /// it back). Call engine().start() to begin injecting and
  /// engine().stop_and_heal() before asserting convergence.
  ChaosEngine& enable_chaos(ChaosConfig chaos_cfg = {}) {
    if (!chaos_) {
      chaos_ = std::make_unique<ChaosEngine>(net_, ids(), chaos_cfg);
      chaos_->set_crash_hook([this](NodeId id) { node(id).stop(); });
      chaos_->set_restart_hook([this](NodeId id) { node(id).found(); });
    }
    return *chaos_;
  }
  ChaosEngine& engine() { return *chaos_; }

  session::SessionNode& node(NodeId id) { return *rings_.at(id).front(); }
  /// Every node's one ring, for the checks in testing/oracles.h.
  const RingTable& rings() const { return rings_; }
  /// The node's SessionMux: its transport and its one ring (group 0).
  session::SessionMux& mux(NodeId id) { return *muxes_.at(id); }
  net::SimNetwork& net() { return net_; }
  const std::vector<Delivery>& delivered(NodeId id) { return deliveries_[id]; }
  const std::vector<session::View>& views(NodeId id) { return views_[id]; }

  std::vector<NodeId> ids() const {
    std::vector<NodeId> out;
    for (auto& [id, rings] : rings_) out.push_back(id);
    return out;
  }

  /// True iff every expected member is started and has a view containing
  /// exactly `expected` (nodes outside the expected set — e.g. cut-off or
  /// crashed ones — are not consulted).
  bool converged(const std::vector<NodeId>& expected) {
    return rings_converged(rings_, expected);
  }

  /// Runs until converged(expected) or timeout; returns success, checking
  /// once more at the deadline.
  bool run_until_converged(const std::vector<NodeId>& expected, Time timeout) {
    return run_until(net_.loop(), timeout,
                     [&] { return converged(expected); }) ||
           converged(expected);
  }

  /// Multicast a string payload from `from`.
  MsgSeq send(NodeId from, const std::string& s,
              session::Ordering o = session::Ordering::kAgreed) {
    return node(from).multicast(Bytes(s.begin(), s.end()), o);
  }

  /// Delivery sequences (origin, payload) must be identical across all
  /// started nodes (agreed ordering check). Returns the first divergence
  /// description or empty string.
  std::string check_agreed_order() {
    const std::vector<Delivery>* ref = nullptr;
    NodeId ref_id = 0;
    for (auto& [id, rings] : rings_) {
      if (!rings.front()->started()) continue;
      if (!ref) {
        ref = &deliveries_[id];
        ref_id = id;
        continue;
      }
      const auto& mine = deliveries_[id];
      std::size_t upto = std::min(ref->size(), mine.size());
      for (std::size_t i = 0; i < upto; ++i) {
        if (!((*ref)[i] == mine[i])) {
          return "divergence at index " + std::to_string(i) + " between node " +
                 std::to_string(ref_id) + " and node " + std::to_string(id);
        }
      }
    }
    return {};
  }

 private:
  net::SimNetwork net_;
  session::SessionConfig cfg_;
  std::unique_ptr<ChaosEngine> chaos_;
  std::map<NodeId, std::unique_ptr<session::SessionMux>> muxes_;
  RingTable rings_;
  std::map<NodeId, std::vector<Delivery>> deliveries_;
  std::map<NodeId, std::vector<session::View>> views_;
};

}  // namespace raincore::testing
