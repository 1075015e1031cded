// Raincore Transport Service (paper §2.1).
//
// Atomic reliable point-to-point unicast with acknowledgement, built on the
// unreliable datagram interface (NodeEnv). Matches the paper's three
// distinguishing properties:
//
//  1. Atomic, connection-less: a transfer is delivered exactly once or not
//     at all; there is no stream state to reconcile when nodes come and go.
//  2. Multi-address: a node may expose several physical addresses
//     (redundant links), and its peers as many as it has itself; sends
//     can walk them sequentially or hit them in parallel.
//  3. Failure-on-delivery notification: when every sending effort fails the
//     upper layer is told — this is the Session Service's local-view
//     failure detector.
//
// On top of the paper's fixed-interval retry schedule the transport offers
// an adaptive mode (TransportConfig::adaptive): per-link Jacobson/Karels
// RTT estimation drives a clamped dynamic RTO with exponential backoff and
// deterministic seeded jitter, and an EWMA link-health score steers
// multi-address sending toward links that are actually delivering. The
// fixed schedule stays bit-for-bit identical when adaptive mode is off.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/network.h"
#include "transport/link_health.h"
#include "transport/rtt_estimator.h"
#include "transport/transport_handle.h"

namespace raincore::transport {

class ReliableTransport : public TransportHandle {
 public:
  // Shared vocabulary (transport_handle.h), re-exported for existing users
  // that spell them as class members.
  using MessageFn = transport::MessageFn;
  using DeliveredFn = transport::DeliveredFn;
  using FailedFn = transport::FailedFn;
  /// Node-level failure observer: fires once per failure-on-delivery, in
  /// addition to the transfer's own FailedFn, with the demux group the
  /// failed transfer was stamped with. The SessionMux uses it to fan one
  /// detection out to every other ring the peer belongs to; the ring whose
  /// transfer failed learns of it through its own FailedFn.
  using FailureObserverFn = std::function<void(NodeId peer, MuxGroup group)>;

  ReliableTransport(net::NodeEnv& env, TransportConfig cfg = {});
  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;
  ~ReliableTransport() override;

  /// Installs the message handler for the default group 0, for users that
  /// have no use for the receipt time.
  void set_message_handler(std::function<void(NodeId src, Slice payload)> fn) {
    set_group_handler(0, [fn = std::move(fn)](NodeId src, Slice payload,
                                              Time) {
      fn(src, std::move(payload));
    });
  }

  /// Installs (or clears, with an empty fn) the handler for one demux
  /// group. Inbound DATA/RAW payloads route by the group stamped in their
  /// wire header; frames for a group with no handler are counted and
  /// dropped after the transport-level ack/dedup work is done.
  void set_group_handler(MuxGroup group, MessageFn fn) override;

  /// Installs the node-level failure-on-delivery observer (one per node).
  void set_failure_observer(FailureObserverFn fn) {
    on_failure_observed_ = std::move(fn);
  }

  /// Starts an atomic reliable transfer. `delivered` fires on the first
  /// acknowledgement; `failed` is the failure-on-delivery notification and
  /// fires after all sending efforts are exhausted.
  ///
  /// The transfer is framed exactly once: when the payload was built with
  /// wire slack (FrameBuilder) and is solely owned, the header/checksum
  /// land in its own headroom/tailroom; otherwise one copy re-frames it.
  /// Either way every retransmission and every interface under
  /// SendStrategy::kParallel shares that single frame buffer.
  TransferId send(NodeId dst, Slice payload, DeliveredFn delivered = {},
                  FailedFn failed = {}) {
    return send_on(0, dst, std::move(payload), std::move(delivered),
                   std::move(failed));
  }
  TransferId send(NodeId dst, Bytes payload, DeliveredFn delivered = {},
                  FailedFn failed = {}) {
    return send_on(0, dst, Slice::take(std::move(payload)),
                   std::move(delivered), std::move(failed));
  }
  /// send() stamped with an explicit demux group. Sequence numbers, epochs
  /// and the receiver dedup window stay per-peer (not per-group): the
  /// reliability substrate is shared, only delivery routing differs.
  TransferId send_on(MuxGroup group, NodeId dst, Slice payload,
                     DeliveredFn delivered = {}, FailedFn failed = {}) override;

  /// Fire-and-forget datagram bypassing acks/retransmission (used for
  /// low-frequency advisory traffic such as BODYODOR discovery).
  void send_unreliable(NodeId dst, Slice payload) {
    send_unreliable_on(0, dst, std::move(payload));
  }
  void send_unreliable(NodeId dst, Bytes payload) {
    send_unreliable_on(0, dst, Slice::take(std::move(payload)));
  }
  void send_unreliable_on(MuxGroup group, NodeId dst, Slice payload) override;

  /// Drops every piece of per-peer state — send epoch/sequence, receive
  /// dedup window, RTT estimates, health scores, liveness stamp — and silently abandons in-flight transfers to the peer (no
  /// failure notifications: the caller is the one declaring the peer gone).
  /// The session layer calls this on membership removal so departed peers
  /// stop costing memory. Re-contacting the peer later starts a fresh send
  /// epoch; the receive side keys its dedup window by that epoch, so a
  /// restarted sequence space cannot be mistaken for stale duplicates (the
  /// re-delivery edge noted at the session's per-origin watermarks guards
  /// the message layer above this).
  void forget_peer(NodeId peer) override;

  /// Crash-stop support: a disabled transport neither sends, acknowledges,
  /// nor delivers — to its peers it is indistinguishable from a dead node.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  std::size_t in_flight() const { return inflight_.size(); }
  NodeId node() const { return env_.node(); }
  net::NodeEnv& env() { return env_; }
  const TransportConfig& config() const override { return cfg_; }

  /// Upper bound on how long a transfer can stay unresolved before either
  /// the delivered or the failure-on-delivery notification fires. In
  /// adaptive mode this is live per-peer state: the worst current RTO
  /// across the peer's links, summed over the backed-off attempt schedule
  /// with maximal jitter. A dead peer produces no new samples, so the bound
  /// computed when the peer stops answering holds for transfers started
  /// after that point.
  Time failure_detection_bound(NodeId peer) const override;

  /// Time since the last integrity-checked frame (data, ack or raw) from
  /// this peer arrived; Time max if the peer was never heard (or has been
  /// forgotten). The session layer's probation step uses this to separate
  /// "degraded link" from "dead node".
  Time since_heard(NodeId peer) const override;

  /// Size of the receiver-side duplicate-suppression set for a peer
  /// (bounded by kMaxRecvTracked in transport.cpp).
  std::size_t recv_tracked(NodeId peer) const;

  /// Per-link adaptive state, for tests and introspection.
  const PeerRttTable& rtt() const { return rtt_; }
  const LinkHealth& link_health() const { return health_; }
  /// Number of peers with sender-side sequence/epoch state (bounded by
  /// forget_peer pruning).
  std::size_t send_peers_tracked() const { return send_state_.size(); }

  /// Frames whose integrity checksum failed verification (corrupted in
  /// flight, or forged without a valid checksum) — dropped before parsing.
  const Counter& checksum_drops() const { return checksum_drops_; }

  // --- Measurement (the §4.1 CPU metric) -----------------------------------
  /// One "task switch" per entry into group-communication processing: every
  /// datagram arrival and every retransmission timer that fires.
  const Counter& task_switches() const { return task_switches_; }
  Counter& task_switches() { return task_switches_; }

  /// All transport instruments (sends, retries, delivered, failure-on-
  /// delivery, duplicate drops, ack latency) under "transport.*" names.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  enum class WireType : std::uint8_t { kData = 1, kAck = 2, kRaw = 3 };

  struct InFlight {
    NodeId dst = kInvalidNode;
    MuxGroup group = 0;          // demux group the frame is stamped with
    std::uint32_t epoch = 0;     // sender epoch the frame is stamped with
    std::uint64_t wire_seq = 0;  // per-destination sequence number
    Time started = 0;            // send() time, for ack-latency measurement
    Slice frame;                 // framed once; shared by every (re)send
    int attempts_done = 0;   // attempts on the current address (sequential)
    int rounds_done = 0;     // attempt rounds (parallel)
    int total_attempts = 0;  // all attempts so far (backoff exponent)
    bool retransmitted = false;  // Karn: acks no longer yield RTT samples
    std::uint8_t addr_index = 0;
    /// Sequential-mode address walk order (health-ranked when adaptive,
    /// identity otherwise). Fixed at first attempt so the walk is coherent.
    std::vector<std::uint8_t> addr_order;
    /// Interfaces the latest attempt used (health attribution on timeout).
    std::vector<std::uint8_t> last_tx;
    net::TimerId timer = 0;
    DeliveredFn delivered;
    FailedFn failed;
  };

  void on_datagram(net::Datagram&& d);
  /// Seals a writer built with kChecksumLen tailroom (checksum appended in
  /// place) and sends the resulting frame.
  void send_frame(const net::Address& to, ByteWriter&& frame,
                  std::uint8_t from_iface);
  /// Frames a payload for a DATA transfer: in place via the payload's own
  /// slack when possible, through one re-copy otherwise.
  Slice build_data_frame(Slice&& payload, MuxGroup group, std::uint32_t epoch,
                         std::uint64_t seq);
  /// Routes an inbound payload to its group's handler (or counts the drop).
  void deliver(MuxGroup group, NodeId src, Slice payload, Time received);
  void attempt(TransferId id);
  void on_attempt_timeout(TransferId id);
  /// Timeout for the attempt just transmitted: cfg_.rto in fixed mode;
  /// estimator RTO × backoff^step, clamped, plus a jitter draw in adaptive
  /// mode.
  Time attempt_rto(const InFlight& f, int backoff_step);
  void transmit(const InFlight& f, std::uint8_t to_iface);
  /// A peer's physical addresses: as many as this node's own interfaces
  /// (redundant links pair interface i with interface i, §2.1).
  std::uint8_t peer_iface_count() const { return env_.iface_count(); }
  RtoBounds rto_bounds() const { return RtoBounds{cfg_.rto}; }
  /// Publishes the worst health score across scored links to the
  /// transport.link_health gauge.
  void refresh_health_gauge();
  void finish(TransferId id, bool ok, std::uint8_t ack_iface = 0);

  net::NodeEnv& env_;
  TransportConfig cfg_;
  /// Per-group upper-layer handlers (group 0 = the classic single-session
  /// handler installed by set_message_handler).
  std::map<MuxGroup, MessageFn> handlers_;
  FailureObserverFn on_failure_observed_;
  bool enabled_ = true;

  std::uint64_t next_transfer_id_ = 1;
  /// Sender-side per-peer stream state. The epoch is stamped into every
  /// DATA frame and echoed by acks: after forget_peer, a re-contacted peer
  /// gets a strictly larger epoch, which tells the receiver to discard its
  /// old dedup window instead of swallowing the restarted sequence space.
  struct PeerSend {
    std::uint32_t epoch = 0;
    std::uint64_t next_seq = 0;
  };
  std::unordered_map<NodeId, PeerSend> send_state_;
  std::uint32_t epoch_counter_ = 0;
  std::map<TransferId, InFlight> inflight_;
  /// (peer, wire_seq) -> transfer, for resolving acknowledgements.
  std::map<std::pair<NodeId, std::uint64_t>, TransferId> ack_index_;

  /// Receiver-side exact duplicate suppression per source node: everything
  /// at or below `watermark` has been delivered; `above` holds delivered
  /// seqs past the watermark (bounded by in-flight reordering). The whole
  /// window belongs to one sender epoch: frames from an older epoch are
  /// dropped (their sender context is gone), a newer epoch resets it.
  struct PeerRecv {
    std::uint32_t epoch = 0;
    std::uint64_t watermark = 0;
    std::set<std::uint64_t> above;
  };
  std::unordered_map<NodeId, PeerRecv> recv_state_;
  /// Last time an integrity-checked frame from each peer arrived.
  std::unordered_map<NodeId, Time> last_heard_;

  PeerRttTable rtt_;
  LinkHealth health_;
  /// Jitter stream, seeded from the node id alone: independent of the
  /// simulation's fault/traffic randomness, identical across identically
  /// seeded runs.
  Rng jitter_rng_;

  metrics::Registry metrics_;
  Counter& task_switches_ = metrics_.counter("transport.task_switches");
  Counter& checksum_drops_ = metrics_.counter("transport.checksum_drops");
  Counter& sends_ = metrics_.counter("transport.sends");
  Counter& frames_out_ = metrics_.counter("transport.frames_out");
  Counter& retries_ = metrics_.counter("transport.retries");
  Counter& delivered_ = metrics_.counter("transport.delivered");
  Counter& fod_ = metrics_.counter("transport.fod");
  Counter& dup_drops_ = metrics_.counter("transport.recv.duplicates");
  /// Frames carrying a sender epoch older than the receiver's current
  /// window for that peer (stale retransmissions from before a
  /// forget_peer) — dropped unacknowledged.
  Counter& stale_epoch_drops_ = metrics_.counter("transport.recv.stale_epoch");
  /// Integrity-checked frames whose demux group has no registered handler
  /// (a peer runs more rings than we do).
  Counter& unknown_group_drops_ =
      metrics_.counter("transport.recv.unknown_group");
  /// Clean (Karn-filtered) ack-latency samples fed to the RTT estimator.
  Counter& rtt_samples_ = metrics_.counter("transport.rtt_samples");
  /// Encode-once accounting: transfers framed in the payload's own slack
  /// vs. transfers that needed the one-copy fallback.
  Counter& frames_inplace_ = metrics_.counter("transport.frames_inplace");
  Counter& frame_copies_ = metrics_.counter("transport.frame_copies");
  /// Most recent clamped RTO scheduled for any attempt (ns).
  Gauge& rto_gauge_ = metrics_.gauge("transport.rto_current_ns");
  /// Worst EWMA health score across the links this node has scored (1.0
  /// before any link was scored); updated in adaptive mode only.
  Gauge& health_gauge_ = metrics_.gauge("transport.link_health");
  Histogram& ack_latency_ = metrics_.histogram("transport.ack_latency_ns");
};

}  // namespace raincore::transport
