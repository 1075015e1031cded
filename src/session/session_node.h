// Raincore Distributed Session Service (paper §2).
//
// One SessionNode per cluster member. It implements:
//   - the fault-tolerant token-ring protocol (§2.2): EATING / HUNGRY /
//     STARVING states, per-hop token sequence numbers, aggressive failure
//     detection driven by the transport's failure-on-delivery notification;
//   - the 911 token-recovery and join protocol (§2.3), including the
//     join/recovery unification that bypasses broken links and undoes
//     failure-detector false alarms;
//   - the BODYODOR discovery and TBM merge protocols (§2.4) for split-brain
//     healing, with group-ID ordering as the deadlock-free tie-break;
//   - atomic reliable multicast with agreed ordering for free and safe
//     ordering at the cost of one extra token round (§2.6);
//   - token-based mutual exclusion (§2.7): callbacks run while EATING.
//
// The node is a passive state machine over a NodeEnv and a TransportHandle
// it does not own, so it runs unchanged under the deterministic simulator
// (a SessionMux's ReliableTransport) and the threaded runtime (a
// TransportProxy to the I/O thread's transport).
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "common/stats.h"
#include "net/network.h"
#include "session/messages.h"
#include "transport/transport_handle.h"

namespace raincore::session {

/// A membership view as adopted from the token.
struct View {
  std::uint64_t view_id = 0;
  GroupId group_id = kInvalidNode;
  std::vector<NodeId> members;  ///< ring order

  bool has(NodeId n) const {
    return std::find(members.begin(), members.end(), n) != members.end();
  }
  bool operator==(const View&) const = default;
};

enum class Ordering : std::uint8_t {
  kAgreed,  ///< total order, delivered on first token sighting
  kSafe,    ///< total order, delivered after a full confirmation round
};

/// Retry/abandon interval for an unfinished 911 round under the fixed-RTO
/// detector (the adaptive one derives it from the detection bound).
constexpr Time kStarvingRetry = millis(250);
/// Join-request (911 to a contact) retry period for fresh joiners.
constexpr Time kJoinRetry = millis(300);
/// After a node removes a peer on a failed token pass, it refuses to
/// re-admit that peer itself for this long. Another member (whose link to
/// the peer works) admits it instead — this is what turns the paper's ABCD
/// ring into ACBD around a broken A→B link (§2.3).
constexpr Time kReadmitBackoff = millis(1500);
/// Probation (adaptive detector only): extra full transfer attempts for a
/// failed successor heard from recently (degraded, not dead) before removal;
/// the fixed-RTO detector removes on the first failure (§2.2).
constexpr int kProbationPasses = 1;
/// try_multicast's byte bound on queued payload (a lone oversized message
/// is admitted into an empty queue so it can never wedge).
constexpr std::size_t kMaxQueueBytes = 8 << 20;

struct SessionConfig {
  /// How long a node holds the token before passing it on ("passed at a
  /// regular time interval", §2.2), counted from the token's arrival: the
  /// visit's merge, delivery and run_exclusive work runs inside the hold,
  /// and the real-time runtime wakes exactly for its end. Token roundtrip
  /// rate L ≈ 1/(N·(hold + hop)).
  Time token_hold = millis(5);
  /// HUNGRY → STARVING timeout (§2.3). Must exceed a worst-case roundtrip
  /// including one failure-detection chain.
  Time hungry_timeout = millis(800);
  /// BODYODOR advert period ("regular, but low frequency", §2.4).
  Time bodyodor_interval = millis(500);
  /// Flow control / batching (RPC-formation style, cortx-motr rpc/): a
  /// token visit drains at most this many queued messages, coalesced into
  /// per-ordering-class batch frames (token.h AttachedBatch).
  std::size_t max_batch_msgs = 128;
  /// Byte-size trigger and per-visit byte cap: a visit stops draining once
  /// the attached payload bytes reach this (a single message larger than
  /// the cap still goes — alone).
  std::size_t max_batch_bytes = 1 << 20;
  /// Bounded send queue: try_multicast refuses (would-block backpressure)
  /// once the queue holds this many messages, or kMaxQueueBytes of payload.
  std::size_t max_queue_msgs = 8192;
  /// Nodes eligible to ever be members (discovery targets, §2.4). Empty
  /// means "no discovery" — merges only happen via explicit join().
  std::vector<NodeId> eligible;
  /// Quorum decider (§2.4, split-brain prevention strategy 1): if set to
  /// the maximum group size N, a node shuts itself down whenever its view
  /// shrinks to N/2 or fewer members. 0 disables (strategy 2: sub-groups
  /// stay functional and merge later — the Raincore default).
  std::size_t quorum_of = 0;
  /// Prepended to every instrument name this ring registers ("ring3.") so
  /// N rings on one node keep distinct "session.*" instruments when their
  /// snapshots merge. Empty = classic unprefixed names.
  std::string metrics_prefix;
};

class SessionNode {
 public:
  enum class State { kIdle, kHungry, kEating, kStarving };

  /// Delivery callback. The payload slice aliases the token frame it rode
  /// in on (zero-copy); retaining the slice keeps that storage alive.
  using DeliverFn =
      std::function<void(NodeId origin, const Slice& payload, Ordering)>;
  using ViewFn = std::function<void(const View&)>;
  /// Invoked when the quorum decider (§2.4) shuts this node down.
  using QuorumShutdownFn = std::function<void()>;
  /// Invoked with the peer id each time this node removes another member
  /// from the ring (failed token pass or 911 round). Harnesses use it to
  /// attribute removals — e.g. the chaos false-removal oracle checks
  /// whether the removed node's process was actually alive.
  using RemovalFn = std::function<void(NodeId)>;
  /// Invoked with true when found()/join() start this ring, and with false
  /// each time stop() runs: a crash-stop, a completed leave or a quorum
  /// shutdown. The SessionMux uses it to switch the shared transport on
  /// and off.
  using StartedFn = std::function<void(bool started)>;

  /// A ring on demux group `group` of a transport owned by the caller —
  /// a SessionMux in the simulator, a TransportProxy to the I/O thread's
  /// transport in the threaded runtime. Timers and rng come from `env`.
  SessionNode(net::NodeEnv& env, transport::TransportHandle& transport,
              transport::MuxGroup group, SessionConfig cfg = {});
  SessionNode(const SessionNode&) = delete;
  SessionNode& operator=(const SessionNode&) = delete;
  ~SessionNode();

  // --- Lifecycle -----------------------------------------------------------

  /// Founds a singleton group holding a fresh token and advertises it
  /// (BODYODOR) at once, then every bodyodor_interval; discovery merges
  /// groups of eligible nodes into one.
  void found();

  /// Joins an existing group by sending 911 join requests to the contacts
  /// (retried round-robin until a token arrives).
  void join(std::vector<NodeId> contacts);

  /// Graceful leave: removes itself from the ring at the next EATING state
  /// and stops. Pending outbound messages are attached before leaving.
  void leave();

  /// Crash-stop: ceases all protocol activity immediately.
  void stop();

  /// Withdraws a pending graceful leave that has not completed yet.
  void cancel_leave() {
    if (started_) leaving_ = false;
  }
  bool leaving() const { return leaving_; }

  bool started() const { return started_; }

  // --- Group communication ---------------------------------------------------

  /// Atomic reliable multicast to the current group (self included).
  /// Returns the per-origin sequence number in the chosen ordering class.
  /// The payload slice is attached by reference and gathered into the token
  /// frame once per hop — the caller's buffer is never copied up front.
  MsgSeq multicast(Slice payload, Ordering ordering = Ordering::kAgreed);
  MsgSeq multicast(Bytes payload, Ordering ordering = Ordering::kAgreed) {
    return multicast(Slice::take(std::move(payload)), ordering);
  }

  /// Flow-controlled multicast: refuses (returns nullopt, increments
  /// "session.backpressure_stalls") when the bounded send queue is full
  /// instead of growing it — the would-block signal producers use to pace
  /// themselves. multicast() above keeps the force-enqueue semantics for
  /// protocol-internal senders that cannot drop (open-submit forwarding,
  /// re-proposals).
  std::optional<MsgSeq> try_multicast(Slice payload,
                                      Ordering ordering = Ordering::kAgreed);
  std::optional<MsgSeq> try_multicast(Bytes payload,
                                      Ordering ordering = Ordering::kAgreed) {
    return try_multicast(Slice::take(std::move(payload)), ordering);
  }

  /// Mutual exclusion service (§2.7): fn runs while this node is EATING —
  /// no other node can be EATING at the same time.
  void run_exclusive(std::function<void()> fn);

  /// Open group communication (§2.6): submits a payload to the group
  /// through `member`, which reliably multicasts it on our behalf. Usable
  /// by non-members (the submitting node never joins the ring); delivery
  /// handlers see the gateway member as the origin.
  void submit_open(NodeId member, Slice payload);
  void submit_open(NodeId member, Bytes payload) {
    submit_open(member, Slice::take(std::move(payload)));
  }

  void set_deliver_handler(DeliverFn fn) { on_deliver_ = std::move(fn); }
  void set_view_handler(ViewFn fn) { on_view_ = std::move(fn); }
  void set_quorum_shutdown_handler(QuorumShutdownFn fn) {
    on_quorum_shutdown_ = std::move(fn);
  }
  void set_removal_handler(RemovalFn fn) { on_removal_ = std::move(fn); }
  void set_started_handler(StartedFn fn) { on_started_ = std::move(fn); }
  void set_eligible(std::vector<NodeId> eligible);

  /// Shared-detector fan-out: another ring on this node observed a
  /// failure-on-delivery to `peer`. The suspicion is stamped and acted on
  /// conservatively — only while this ring holds the token, only while the
  /// stamp is fresh, and only if the peer has been globally silent (no
  /// frame on the shared transport) for at least its failure-detection
  /// bound. One detection thus yields N membership updates without N
  /// independent detectors racing each other into false removals.
  void note_peer_suspect(NodeId peer);

  // --- Introspection ---------------------------------------------------------

  NodeId id() const { return env_.node(); }
  State state() const { return state_; }
  /// Incremented on every found()/join(): lets layered services detect a
  /// crash-restart of this node and drop their own stale replicas.
  std::uint64_t generation() const { return generation_; }
  const View& view() const { return view_; }
  const Token& last_copy() const { return last_copy_; }
  bool holds_token() const { return state_ == State::kEating; }
  std::size_t pending_out() const { return pending_out_.size(); }
  /// Payload bytes currently held in the bounded send queue.
  std::size_t pending_out_bytes() const { return pending_bytes_; }
  /// The environment this ring's timers and rng run on.
  net::NodeEnv& env() { return env_; }
  const SessionConfig& config() const { return cfg_; }

  /// Debug/test introspection: TBM tokens held while awaiting our own.
  std::size_t pending_foreign_count() const { return pending_foreign_.size(); }

  /// Named views into the node's metrics registry. The field names predate
  /// the registry; both spellings address the same instruments.
  struct Stats {
    explicit Stats(metrics::Registry& r)
        : tokens_received(r.counter("session.token.received")),
          tokens_passed(r.counter("session.token.passed")),
          stale_tokens_dropped(r.counter("session.token.stale_dropped")),
          msgs_sent(r.counter("session.msgs.sent")),
          msgs_delivered(r.counter("session.msgs.delivered")),
          regenerations(r.counter("session.911.regenerations")),
          merges(r.counter("session.merges")),
          joins_processed(r.counter("session.joins")),
          removals(r.counter("session.removals")),
          starvations(r.counter("session.911.starvations")),
          denials_sent(r.counter("session.911.denials")),
          view_changes(r.counter("session.view_changes")),
          probation_retries(r.counter("session.probation_retries")),
          probation_saves(r.counter("session.probation_saves")),
          roundtrip(r.histogram("session.token.rotation_ns")) {}
    Counter &tokens_received, &tokens_passed, &stale_tokens_dropped;
    Counter &msgs_sent, &msgs_delivered;
    Counter &regenerations, &merges, &joins_processed, &removals;
    Counter &starvations, &denials_sent, &view_changes;
    Counter &probation_retries, &probation_saves;
    Histogram& roundtrip;  ///< observed token roundtrip times (ns)
  };
  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

  /// All session instruments ("session.*"), including per-state dwell-time
  /// histograms and the ring-size gauge, for snapshot/export.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  // Message plumbing.
  void on_transport_message(NodeId src, Slice payload, Time received);
  void handle_token(Token&& t, Time received);
  void handle_911(const Msg911& m);
  void handle_911_reply(const Msg911Reply& m);
  void handle_bodyodor(const MsgBodyOdor& m);

  // Token-ring machinery.
  /// Delivers / ages / retires t.batches[first..] in list order. first > 0
  /// continues this visit's arrival-time pass over batches appended since
  /// (the pass-time attach), under the holdback that pass ended in.
  void process_attached(Token& t, std::size_t first = 0);
  void attach_pending(Token& t);
  void process_joins(Token& t);
  /// Takes the token and starts a visit. `received` is when a live
  /// token's frame reached this node's transport (DESIGN.md §5): the hold
  /// counts from the earlier of it and now. Every other entry (founding,
  /// TBM adoption, regeneration, the singleton's re-entry) counts from now.
  void begin_eating(Token&& t, Time received = kNoReceipt);
  void eating_cycle(Time received = kNoReceipt);
  void pass_token();
  void send_token_to_successor();
  void on_pass_failure(NodeId failed);
  void resend_pass_under_probation(NodeId succ);
  void adopt_view_from(const Token& t);
  void note_lineage(std::uint64_t lineage, TokenSeq seq);
  bool is_stale(const Token& t) const;
  void complete_leave();
  /// Acts on fanned-out suspicions while EATING: removes members whose
  /// suspicion stamp is fresh and who are globally silent on the shared
  /// transport; drops everything else.
  void process_suspects();

  // 911 machinery.
  void enter_starving();
  void start_911_round();
  void finish_911_round_if_complete();
  void regenerate_token();

  // Merge machinery.
  void send_bodyodors();
  Token merge_tokens(Token own);
  void send_join_request();

  // Timers. In adaptive mode the hungry/starving intervals are derived
  // live from the transport's per-peer failure-detection bounds instead of
  // the independent constants in SessionConfig.
  void arm_hungry_timer();
  void disarm_hungry_timer();
  void arm_hold_timer();
  void arm_bodyodor_timer();
  Time max_member_detection_bound() const;
  Time effective_hungry_timeout() const;
  Time effective_starving_retry() const;

  void deliver(NodeId origin, const Slice& payload, bool safe);
  /// Delivers the batch's inner messages above `watermark` in order and
  /// advances the watermark (exactly-once across duplicated batch frames).
  void deliver_batch(const AttachedBatch& b, MsgSeq& watermark);
  void reset_protocol_state();
  /// Single state-transition point: records dwell time in the state being
  /// left into the matching "session.state.*_dwell_ns" histogram.
  void set_state(State s, const char* why);
  Histogram& dwell_hist(State s);

  net::NodeEnv& env_;
  SessionConfig cfg_;
  /// Every wire operation goes through this; the caller owns it.
  transport::TransportHandle& transport_;
  transport::MuxGroup group_ = 0;

  bool started_ = false;
  bool leaving_ = false;
  std::uint64_t generation_ = 0;
  State state_ = State::kIdle;
  View view_;

  Token token_;       ///< valid while EATING (the token we hold)
  Token last_copy_;   ///< local copy of the token as last seen/sent (§2.3)
  /// Newest token seq observed per lineage (stale-token suppression).
  std::map<std::uint64_t, TokenSeq> seen_lineage_;

  // Multicast state.
  std::uint32_t incarnation_ = 0;
  MsgSeq next_agreed_seq_ = 0;
  MsgSeq next_safe_seq_ = 0;
  /// Per-(origin, incarnation) delivery watermarks.
  ///
  /// Keyed by incarnation — not reset on incarnation change — because token
  /// regeneration can resurrect an origin's previous-incarnation messages
  /// (they ride on whichever last_copy_ wins the 911 arbitration) and those
  /// may interleave with the restarted origin's new stream. A single
  /// per-origin watermark that resets whenever the incarnation flips would
  /// forget the old incarnation's progress and re-deliver a stale seq (the
  /// chaos sweep's seed-547 "counter 20 after 21" agreed-order violation).
  /// Each incarnation keeps its own watermark instead; old ones are evicted
  /// in arrival order once an origin exceeds kMaxIncarnationsPerOrigin.
  struct OriginState {
    MsgSeq agreed = 0;
    MsgSeq safe = 0;
    std::uint64_t stamp = 0;  ///< arrival order, for bounded eviction
  };
  std::map<std::pair<NodeId, std::uint32_t>, OriginState> origin_state_;
  std::uint64_t origin_stamp_ = 0;
  OriginState& origin_watermarks(NodeId origin, std::uint32_t incarnation);
  /// Bounded send queue (the batching layer's feed): messages wait here
  /// until a token visit drains them into batch frames.
  struct PendingMsg {
    MsgSeq seq = 0;
    bool safe = false;
    Slice payload;
  };
  std::deque<PendingMsg> pending_out_;
  std::size_t pending_bytes_ = 0;
  /// What this visit has attached so far: the arrival-time and pass-time
  /// attaches share one max_batch_msgs / max_batch_bytes budget.
  std::size_t visit_msgs_ = 0;
  std::size_t visit_bytes_ = 0;
  /// This visit's delivery pass stopped at an unconfirmed safe batch, so
  /// every batch attached behind it is held back too.
  bool holdback_ = false;
  std::deque<std::function<void()>> exclusive_queue_;

  // Probation state: the successor currently on its extra attempt budget.
  NodeId probation_peer_ = kInvalidNode;
  int probation_left_ = 0;

  /// Suspicion stamps fanned out by the shared detector (note_peer_suspect),
  /// acted on at the next token possession.
  std::map<NodeId, Time> suspects_;

  // Join / merge state.
  std::set<NodeId> pending_joins_;         ///< plain 911 joiners
  std::map<NodeId, Time> readmit_after_;   ///< per-peer re-admit cooldown
  /// A BODYODOR sender to invite, with the group ID its newest advert
  /// reported (checked again when the invitation would be sent).
  struct MergeInvite {
    NodeId sender = kInvalidNode;
    GroupId group_id = kInvalidNode;
  };
  std::deque<MergeInvite> pending_merge_invites_;
  std::vector<Token> pending_foreign_;     ///< TBM tokens held awaiting own token
  std::vector<NodeId> join_contacts_;
  std::size_t join_contact_idx_ = 0;

  // 911 round state.
  std::uint64_t next_911_id_ = 1;
  std::uint64_t active_911_ = 0;  ///< 0 when no round in flight
  std::set<NodeId> awaiting_grant_;
  std::set<NodeId> round_dead_;   ///< failures observed during the round
  int starving_rounds_ = 0;       ///< consecutive fruitless rounds this starvation

  // Timers.
  net::TimerId hungry_timer_ = 0;
  net::TimerId hold_timer_ = 0;
  /// Start of the current eating cycle: the hold is counted from here.
  Time eating_since_ = 0;
  /// begin_eating/eating_cycle's "no receipt": the hold counts from now.
  static constexpr Time kNoReceipt = std::numeric_limits<Time>::max();
  net::TimerId bodyodor_timer_ = 0;
  net::TimerId starving_timer_ = 0;
  net::TimerId join_timer_ = 0;

  std::set<NodeId> eligible_;
  Time last_token_rx_ = -1;

  DeliverFn on_deliver_;
  ViewFn on_view_;
  QuorumShutdownFn on_quorum_shutdown_;
  RemovalFn on_removal_;
  StartedFn on_started_;

  metrics::Registry metrics_{cfg_.metrics_prefix};
  Stats stats_{metrics_};
  Histogram& dwell_idle_ = metrics_.histogram("session.state.idle_dwell_ns");
  Histogram& dwell_hungry_ =
      metrics_.histogram("session.state.hungry_dwell_ns");
  Histogram& dwell_eating_ =
      metrics_.histogram("session.state.eating_dwell_ns");
  Histogram& dwell_starving_ =
      metrics_.histogram("session.state.starving_dwell_ns");
  Counter& rounds_911_ = metrics_.counter("session.911.rounds");
  // Batching / flow-control instruments.
  Counter& backpressure_stalls_ =
      metrics_.counter("session.backpressure_stalls");
  Counter& batches_attached_ = metrics_.counter("session.batch.attached");
  Counter& batch_msgs_ = metrics_.counter("session.batch.msgs");
  Counter& batch_bytes_ = metrics_.counter("session.batch.bytes");
  Histogram& batch_fill_ = metrics_.histogram("session.batch.fill");
  Gauge& queue_depth_ = metrics_.gauge("session.queue.depth");
  /// Members removed on a fanned-out suspicion from another ring's
  /// detection (vs. this ring's own failed pass).
  Counter& suspect_removals_ = metrics_.counter("session.suspect_removals");
  Gauge& ring_size_ = metrics_.gauge("session.ring.size");
  Time state_since_ = 0;
};

}  // namespace raincore::session
