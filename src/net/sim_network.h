// Deterministic in-process packet network with fault injection.
//
// This is the testbed substitute for the paper's switched Fast Ethernet lab:
// a virtual-time fabric with per-link latency/jitter/loss, packet
// duplication, payload corruption (bit flips), reordering, link cuts, node
// disconnects and named partitions, plus exact packet/byte counters used by
// the §4.1 overhead benchmarks. Unicast only — matching the paper's design
// assumption that no broadcast medium is available.
//
// Fault-parameter validation: probabilities are clamped to [0, 1] and
// latency/jitter to >= 0 at the API boundary (assert in debug builds, clamp
// in release), so a chaos schedule can never push the fabric into a
// nonsensical state.
//
// Override precedence, most specific wins:
//   1. address-pair override  (set via the Address overloads)
//   2. node-pair override     (set via the NodeId overloads)
//   3. network defaults       (SimNetConfig)
// Each LinkOverride field falls back independently: an address-pair override
// that only sets `drop` still takes latency from the node-pair override (if
// set there) and otherwise from the defaults.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "net/event_loop.h"
#include "net/network.h"

namespace raincore::net {

struct SimNetConfig {
  Time default_latency = micros(100);  ///< one-way latency, switched LAN scale
  Time default_jitter = 0;             ///< uniform extra delay in [0, jitter]
  double default_drop = 0.0;           ///< per-packet loss probability
  double default_duplicate = 0.0;      ///< per-packet duplication probability
  double default_corrupt = 0.0;        ///< per-packet bit-flip probability
  bool preserve_order = true;          ///< FIFO per directed (src,dst) pair
  std::uint64_t seed = 42;
};

/// Partial per-link override; unset fields fall back to node-pair overrides
/// and then to the network defaults (see precedence order above).
struct LinkOverride {
  std::optional<bool> up;
  std::optional<double> drop;
  std::optional<Time> latency;
  std::optional<Time> jitter;
  std::optional<double> duplicate;      ///< P(one extra copy is delivered)
  std::optional<double> corrupt;        ///< P(1..4 random payload bits flip)
  std::optional<bool> preserve_order;   ///< false = copies may overtake
};

class SimNetwork {
 public:
  explicit SimNetwork(SimNetConfig cfg = {});
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;
  ~SimNetwork();

  EventLoop& loop() { return loop_; }
  Time now() const { return loop_.now(); }
  Rng& rng() { return rng_; }
  const SimNetConfig& config() const { return cfg_; }

  /// Registers a node with n_ifaces physical addresses (node, 0..n-1).
  /// The returned environment is owned by the network.
  NodeEnv& add_node(NodeId id, std::uint8_t n_ifaces = 1);
  bool has_node(NodeId id) const;

  // --- Fault injection -----------------------------------------------------

  /// Cuts or restores every interface pair between two nodes.
  void set_link_up(NodeId a, NodeId b, bool up, bool bidirectional = true);
  /// Cuts or restores one specific interface pair (directed unless bidir).
  void set_link_up(const Address& a, const Address& b, bool up,
                   bool bidirectional = true);
  /// p is clamped to [0, 1].
  void set_drop_rate(NodeId a, NodeId b, double p, bool bidirectional = true);
  /// Negative latency/jitter are rejected (clamped to 0).
  void set_latency(NodeId a, NodeId b, Time latency, Time jitter = 0,
                   bool bidirectional = true);
  /// Probability (clamped to [0, 1]) that a packet is delivered twice, the
  /// extra copy with its own independently drawn delay.
  void set_duplicate_rate(NodeId a, NodeId b, double p,
                          bool bidirectional = true);
  /// Probability (clamped to [0, 1]) that 1..4 random bits of the payload
  /// are flipped in flight.
  void set_corrupt_rate(NodeId a, NodeId b, double p, bool bidirectional = true);
  /// preserve = false lets packets on this node pair overtake each other
  /// (jitter and duplicates then reorder freely).
  void set_preserve_order(NodeId a, NodeId b, bool preserve,
                          bool bidirectional = true);
  /// Removes every node-pair override between a and b, reverting the pair
  /// to address-pair overrides (if any) and the network defaults.
  void clear_link_overrides(NodeId a, NodeId b, bool bidirectional = true);
  /// Disconnected nodes can neither send nor receive ("cable unplugged").
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const;

  /// Splits the fabric into isolated groups; traffic between different
  /// groups is dropped. Nodes not listed stay reachable from every group.
  void partition(std::vector<std::vector<NodeId>> groups);
  void heal_partition();

  // --- Measurement ---------------------------------------------------------

  struct NodeStats {
    Counter pkts_sent, pkts_recv, bytes_sent, bytes_recv, pkts_dropped;
    /// Fault-injection counters: extra copies injected (sender side),
    /// payloads bit-flipped in flight (sender side), and deliveries that
    /// overtook an earlier-sent packet (receiver side).
    Counter pkts_duplicated, pkts_corrupted, pkts_reordered;
  };
  const NodeStats& stats(NodeId id) const;
  /// Sum over all nodes (sent-side totals).
  NodeStats totals() const;
  void reset_stats();

 private:
  class SimNodeEnv;
  struct EffectiveLink {
    bool up;
    double drop;
    Time latency;
    Time jitter;
    double duplicate;
    double corrupt;
    bool preserve_order;
  };

  void do_send(Datagram&& d);
  void schedule_delivery(Datagram&& d, const EffectiveLink& link,
                         SimNodeEnv* dst);
  EffectiveLink resolve(const Address& src, const Address& dst) const;
  bool crosses_partition(NodeId a, NodeId b) const;

  SimNetConfig cfg_;
  EventLoop loop_;
  Rng rng_;
  std::map<NodeId, std::unique_ptr<SimNodeEnv>> nodes_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, LinkOverride> addr_links_;
  std::map<std::pair<NodeId, NodeId>, LinkOverride> node_links_;
  std::map<NodeId, bool> node_up_;
  std::vector<std::vector<NodeId>> partitions_;
  mutable std::map<NodeId, NodeStats> stats_;
  /// Latest scheduled delivery instant per directed (src,dst) address pair:
  /// the FIFO clamp when order is preserved, the reorder detector otherwise.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Time> last_delivery_;
};

}  // namespace raincore::net
