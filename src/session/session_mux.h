// A simulated node: one shared transport and the Raincore rings riding it.
//
// A SessionMux owns a single ReliableTransport on a single NodeEnv — one
// UDP port, one per-peer dedup window, one set of RTT/link-health/failure-
// detection state — and any number of SessionNode rings riding it, each on
// its own wire demux group. Inbound frames route to their ring by the
// group id in the transport header; a failure-on-delivery observed by one
// ring's transfer fans out to every other ring the peer belongs to (one
// detection, N membership updates), via SessionNode::note_peer_suspect.
//
// The transport is on while any ring is started: a ring's found() or
// join() switches it on, and it goes off when the last started ring stops
// (crash-stop, completed leave or quorum shutdown). A one-ring mux is
// thus the classic single-session node, silent to its peers once its ring
// is down.
//
// This is the substrate for every simulated node shape: single-ring
// clusters, the hierarchical ring (the leader's global ring is just
// another group on the same stack — no second UDP port, no second
// detector) and the sharded data plane (K rings scale aggregate multicast
// throughput; see data/shard_router.h).
#pragma once

#include <map>
#include <memory>

#include "session/session_node.h"
#include "transport/transport.h"

namespace raincore::session {

class SessionMux {
 public:
  explicit SessionMux(net::NodeEnv& env, transport::TransportConfig tcfg = {});
  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;
  ~SessionMux();

  /// Creates the ring for `group` (one per group id). The ring is owned by
  /// the mux and valid until destroy_ring or the mux's destruction. Rings
  /// sharing a mux need distinct cfg.metrics_prefix values ("shard2.") to
  /// keep their "session.*" instruments apart in metrics_snapshot().
  SessionNode& create_ring(transport::MuxGroup group, SessionConfig cfg = {});

  /// Destroys a ring and unregisters its demux group.
  void destroy_ring(transport::MuxGroup group);

  SessionNode* ring(transport::MuxGroup group);
  const SessionNode* ring(transport::MuxGroup group) const;
  std::size_t ring_count() const { return rings_.size(); }

  /// Applies fn to every ring, in ascending group order.
  template <typename Fn>
  void for_each_ring(Fn&& fn) {
    for (auto& [g, node] : rings_) fn(g, *node);
  }

  /// Node-level crash-stop: stops every ring and disables the shared
  /// transport (to peers this node is dead); enable restores the transport
  /// without restarting any ring.
  void set_enabled(bool enabled);
  bool enabled() const { return transport_.enabled(); }

  transport::ReliableTransport& transport() { return transport_; }
  const transport::ReliableTransport& transport() const { return transport_; }
  net::NodeEnv& env() { return env_; }
  NodeId node() const { return transport_.node(); }

  /// Merged snapshot of the shared transport and every ring's (prefixed)
  /// session instruments — the whole node's runtime in one document.
  metrics::Snapshot metrics_snapshot() const;

 private:
  /// A ring started (transport on) or stopped (off once no ring runs).
  void on_ring_started(bool started);

  net::NodeEnv& env_;
  transport::ReliableTransport transport_;
  std::map<transport::MuxGroup, std::unique_ptr<SessionNode>> rings_;
};

}  // namespace raincore::session
