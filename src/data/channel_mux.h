// Channel multiplexer: lets several services (lock manager, replicated map,
// applications) share one SessionNode's multicast stream and view events.
// Frames every multicast with a 16-bit channel id.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "session/session_node.h"

namespace raincore::data {

using Channel = std::uint16_t;

/// Max serialized bytes per live-migration chunk (the collect_range_chunks
/// of ReplicatedMap and LockManager, DESIGN.md §5j).
constexpr std::size_t kMigrationChunkBytes = 32 * 1024;

class ChannelMux {
 public:
  /// Channel payload slices alias the delivered token frame (zero-copy).
  using ChannelFn =
      std::function<void(NodeId origin, const Slice& payload, session::Ordering)>;
  using ViewFn = std::function<void(const session::View&)>;

  explicit ChannelMux(session::SessionNode& node);
  ChannelMux(const ChannelMux&) = delete;
  ChannelMux& operator=(const ChannelMux&) = delete;

  /// Multicasts on a channel with the given ordering.
  MsgSeq send(Channel ch, Slice payload,
              session::Ordering o = session::Ordering::kAgreed);
  MsgSeq send(Channel ch, Bytes payload,
              session::Ordering o = session::Ordering::kAgreed) {
    return send(ch, Slice::take(std::move(payload)), o);
  }

  /// Flow-controlled variant: refuses (nullopt) when the session's bounded
  /// send queue is full instead of growing it. Producers that can pace
  /// themselves (bulk loaders, benchmark injectors) use this; the plain
  /// send() keeps force-enqueue semantics for protocol traffic.
  std::optional<MsgSeq> try_send(Channel ch, Slice payload,
                                 session::Ordering o = session::Ordering::kAgreed);
  std::optional<MsgSeq> try_send(Channel ch, Bytes payload,
                                 session::Ordering o = session::Ordering::kAgreed) {
    return try_send(ch, Slice::take(std::move(payload)), o);
  }

  /// At most one subscriber per channel (services own their channels).
  void subscribe(Channel ch, ChannelFn fn);
  /// Any number of view subscribers; also invoked immediately with the
  /// current view if the node already has one.
  void subscribe_views(ViewFn fn);

  session::SessionNode& session() { return node_; }
  NodeId self() const { return node_.id(); }
  const session::View& view() const { return node_.view(); }
  /// Current virtual time of the owning node's event loop — shared clock
  /// for the data services' latency instruments.
  Time now() const { return node_.env().now(); }

  /// Mux-level instruments ("data.mux.*"): per-channel traffic counts.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  session::SessionNode& node_;
  std::map<Channel, ChannelFn> channels_;
  std::vector<ViewFn> view_fns_;
  metrics::Registry metrics_;
  Counter& sent_ = metrics_.counter("data.mux.sent");
  Counter& delivered_ = metrics_.counter("data.mux.delivered");
  /// try_send calls refused by session backpressure (bounded queue full).
  Counter& refused_ = metrics_.counter("data.mux.send_refused");
};

}  // namespace raincore::data
