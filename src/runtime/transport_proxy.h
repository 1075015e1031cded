// Cross-thread transport marshalling: the TransportHandle a worker-pinned
// ring sends through (DESIGN.md §5i).
//
// The I/O thread owns the sockets and the one ReliableTransport; each
// worker owns one ring. The proxy sits between, one instance per ring,
// with two bounded SPSC rings as the only shared state:
//
//   worker --commands-->  I/O   (sends, forget_peer; Slice refs move, the
//                                payload bytes never copy)
//   I/O    --events---->  worker (inbound group payloads, delivered/failed
//                                completions, suspect fan-out)
//
// Each push is followed by a notify() on the consumer's loop — an eventfd
// write, no lock, no allocation — except a delivered completion nobody
// registered a callback for, which rides the worker's next wake. Completion callbacks are kept worker-side
// in a plain map keyed by a proxy-local transfer id, so std::function
// state never crosses threads; the I/O thread only ever moves POD + Slice.
//
// Overflow policy (bounded on purpose): a full command or inbound ring
// counts and drops — for reliable sends the failure-on-delivery callback
// fires locally, making saturation look exactly like a dead wire, which
// the protocol already survives; for inbound tokens the 911 recovery path
// is the backstop. Completions and suspects are tiny and must not vanish
// silently, so the I/O thread briefly yields-and-retries before giving up.
#pragma once

#include <cstdint>
#include <map>

#include "common/metrics.h"
#include "common/spsc_queue.h"
#include "net/real_time_loop.h"
#include "runtime/peer_status.h"
#include "transport/transport.h"

namespace raincore::runtime {

class TransportProxy final : public transport::TransportHandle {
 public:
  /// Constructed on the setup thread before any loop runs. `reg` names the
  /// proxy's overflow/depth instruments under `prefix` ("shard3.").
  TransportProxy(net::RealTimeLoop& io_loop, net::RealTimeLoop& worker_loop,
                 transport::ReliableTransport& transport,
                 PeerStatusBoard& board, transport::MuxGroup group,
                 std::size_t queue_capacity, metrics::Registry& reg,
                 const std::string& prefix);

  // --- TransportHandle (worker thread) -------------------------------------
  transport::TransferId send_on(transport::MuxGroup group, NodeId dst,
                                Slice payload,
                                transport::DeliveredFn delivered = {},
                                transport::FailedFn failed = {}) override;
  void send_unreliable_on(transport::MuxGroup group, NodeId dst,
                          Slice payload) override;
  void set_group_handler(transport::MuxGroup group,
                         transport::MessageFn fn) override;
  void forget_peer(NodeId peer) override;
  const transport::TransportConfig& config() const override { return cfg_; }
  Time failure_detection_bound(NodeId peer) const override {
    return board_.failure_detection_bound(peer);
  }
  Time since_heard(NodeId peer) const override {
    return board_.since_heard(peer, worker_loop_.now());
  }

  // --- Worker thread -------------------------------------------------------
  /// Drains inbound payloads, completions and suspects; wired as (part of)
  /// the worker loop's service handler.
  void worker_drain();
  /// Receives the suspect fan-out (ring->note_peer_suspect, typically).
  void set_suspect_handler(std::function<void(NodeId)> fn) {
    on_suspect_ = std::move(fn);
  }

  // --- I/O thread ----------------------------------------------------------
  /// Executes queued worker commands against the real transport; wired as
  /// (part of) the I/O loop's service handler.
  void io_drain_commands();
  /// Entry for inbound payloads of this proxy's group (the real
  /// transport's group handler).
  void io_deliver(NodeId src, Slice payload);
  /// Fan-out of a failure-on-delivery observed by any ring of this node.
  void io_notify_suspect(NodeId peer);

  transport::MuxGroup group() const { return group_; }

 private:
  enum class Cmd : std::uint8_t { kSend, kUnreliable, kForget };
  struct Command {
    Cmd kind = Cmd::kSend;
    NodeId dst = 0;
    std::uint64_t client_id = 0;
    /// kSend with a delivered callback: its ack wakes the worker. Without
    /// one (every token pass) the ack only erases a pending_ entry, so its
    /// event waits for the worker's next wake instead of causing one.
    bool wake_on_delivered = false;
    Slice payload;
  };
  enum class Ev : std::uint8_t { kInbound, kDelivered, kFailed, kSuspect };
  struct Event {
    Ev kind = Ev::kInbound;
    NodeId peer = 0;
    std::uint64_t client_id = 0;
    Slice payload;
  };

  /// Push an event the protocol cannot afford to lose: yields to let the
  /// worker drain, then drops with a count as the last resort.
  void io_push_event_reliably(Event ev);

  net::RealTimeLoop& io_loop_;
  net::RealTimeLoop& worker_loop_;
  transport::ReliableTransport& transport_;
  PeerStatusBoard& board_;
  transport::MuxGroup group_;
  transport::TransportConfig cfg_;

  SpscQueue<Command> commands_;  // producer: worker, consumer: I/O
  SpscQueue<Event> events_;      // producer: I/O, consumer: worker

  // Worker-side only.
  transport::MessageFn handler_;
  std::function<void(NodeId)> on_suspect_;
  struct PendingCallbacks {
    transport::DeliveredFn delivered;
    transport::FailedFn failed;
  };
  std::map<std::uint64_t, PendingCallbacks> pending_;
  std::uint64_t next_client_id_ = 1;

  Counter& cmd_dropped_;
  Counter& inbound_dropped_;
  Counter& event_retries_;
  Counter& event_dropped_;
};

}  // namespace raincore::runtime
