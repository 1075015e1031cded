// The transport surface a session ring actually consumes, as an abstract
// interface — plus the transport's shared vocabulary types.
//
// SessionNode (and everything above it) talks to its transport exclusively
// through TransportHandle. Two implementations exist:
//   * ReliableTransport (transport/transport.h) — the real stack, for the
//     single-threaded simulator and any ring living on the I/O thread;
//   * runtime::TransportProxy (runtime/transport_proxy.h) — a marshalling
//     stub for rings pinned to worker threads, forwarding commands to the
//     I/O thread's real transport and posting completions back.
//
// The interface is deliberately sized from observed use: reliable and raw
// group-stamped sends, peer forgetting, the adaptive failure-detection
// queries (failure_detection_bound / since_heard), config access, and the
// group handler registration. Anything else (set_enabled, metrics) stays
// on the concrete type, owned by whoever owns the stack.
#pragma once

#include <cstdint>
#include <functional>

#include "common/buffer.h"
#include "common/types.h"

namespace raincore::transport {

enum class SendStrategy : std::uint8_t {
  kSequential,  ///< exhaust address 0, then address 1, ...
  kParallel,    ///< every attempt round sends on all address pairs at once
};

struct TransportConfig {
  Time rto = millis(50);        ///< retransmission timeout per attempt
  int attempts_per_address = 3; ///< attempts before a (sequential) address is abandoned
  SendStrategy strategy = SendStrategy::kSequential;

  /// Adaptive failure detection. Off (the default) reproduces the paper's
  /// fixed-interval schedule exactly: every attempt waits `rto`, no jitter,
  /// no health steering, and failure_detection_bound() is the closed-form
  /// constant. On, each attempt waits the link's Jacobson/Karels RTO
  /// (`rto` until the first sample) clamped to [5 ms, 400 ms]
  /// (RtoBounds), doubled per retry of one transfer, plus a seeded jitter
  /// of up to 10% (transport.cpp); kSequential walks addresses
  /// healthiest-first.
  bool adaptive = false;
};

/// Identifies one in-flight transfer at the sender.
using TransferId = std::uint64_t;

/// Session/group demux label carried by every DATA and RAW frame (Appendix
/// A): N session rings on one node share a single transport — one UDP
/// port, one dedup window, one set of per-peer RTT/health/failure state —
/// and inbound payloads route to the handler registered for their group.
/// Group 0 is the default for single-session nodes.
using MuxGroup = std::uint16_t;

/// Upper-layer delivery: the payload slice aliases the inbound datagram
/// (zero-copy); retaining it keeps the datagram storage alive. `received`
/// is the transport's clock reading when the frame passed its checksum,
/// before the ack: a handler that runs later (a worker-pinned ring behind
/// its proxy) can still count from the frame's arrival.
using MessageFn =
    std::function<void(NodeId src, Slice payload, Time received)>;
using DeliveredFn = std::function<void(TransferId, NodeId peer)>;
using FailedFn = std::function<void(TransferId, NodeId peer)>;

class TransportHandle {
 public:
  virtual ~TransportHandle() = default;

  /// Atomic reliable transfer stamped with a demux group. `delivered`
  /// fires on first acknowledgement, `failed` is the failure-on-delivery
  /// notification; both run on the caller's thread.
  virtual TransferId send_on(MuxGroup group, NodeId dst, Slice payload,
                             DeliveredFn delivered = {},
                             FailedFn failed = {}) = 0;

  /// Fire-and-forget datagram bypassing acks/retransmission.
  virtual void send_unreliable_on(MuxGroup group, NodeId dst,
                                  Slice payload) = 0;

  /// Installs (or clears) the inbound handler for one demux group; the
  /// handler runs on the caller's thread.
  virtual void set_group_handler(MuxGroup group, MessageFn fn) = 0;

  /// Drops all per-peer reliability state (a removed ring member).
  virtual void forget_peer(NodeId peer) = 0;

  virtual const TransportConfig& config() const = 0;

  /// Worst-case time from a send to its failure-on-delivery notification
  /// for this peer (closed-form when fixed, live estimate when adaptive).
  virtual Time failure_detection_bound(NodeId peer) const = 0;

  /// Time since any frame was last heard from the peer (Time max if never).
  virtual Time since_heard(NodeId peer) const = 0;
};

}  // namespace raincore::transport
