// SessionNode node-level plumbing: construction and transport binding,
// lifecycle (found / join / leave / stop), public group-communication
// services, message dispatch and protocol timers. The ring protocol engine
// itself — token handling, 911 recovery, discovery/merge, suspicion
// processing — lives in session_ring.cpp.
#include "session/session_node.h"

#include <cassert>

#include "common/log.h"

namespace raincore::session {

namespace {
constexpr const char* kMod = "session";
}  // namespace

Histogram& SessionNode::dwell_hist(State s) {
  switch (s) {
    case State::kHungry: return dwell_hungry_;
    case State::kEating: return dwell_eating_;
    case State::kStarving: return dwell_starving_;
    case State::kIdle: break;
  }
  return dwell_idle_;
}

void SessionNode::set_state(State s, const char* why) {
  if (s != state_) {
    const Time now = env_.now();
    dwell_hist(state_).record_time(now - state_since_);
    state_since_ = now;
    state_ = s;
  }
  RC_DEBUG(kMod, "node %u g%u: state->%d (%s)", id(), unsigned{group_},
           (int)state_, why);
  (void)why;
}

SessionNode::SessionNode(net::NodeEnv& env,
                         transport::TransportHandle& transport,
                         transport::MuxGroup group, SessionConfig cfg)
    : env_(env), cfg_(std::move(cfg)), transport_(transport), group_(group) {
  // The node's transport configuration is authoritative (one detector, one
  // retry schedule); mirror it so introspection through config() agrees.
  cfg_.transport = transport_.config();
  incarnation_ = static_cast<std::uint32_t>(env_.rng().next_u64());
  eligible_.insert(cfg_.eligible.begin(), cfg_.eligible.end());
  transport_.set_group_handler(group_, [this](NodeId src, Slice payload) {
    on_transport_message(src, std::move(payload));
  });
}

SessionNode::~SessionNode() {
  stop();
  // The transport outlives this ring: drop the handler so no frame routes
  // into a destroyed object.
  transport_.set_group_handler(group_, nullptr);
}

// --- Lifecycle ---------------------------------------------------------------

void SessionNode::reset_protocol_state() {
  ++generation_;
  // A (re)start is a fresh process incarnation: stale token copies, views
  // and delivery watermarks must not leak across restarts. A crashed node
  // that kept its old (possibly newest) token copy would deny every
  // survivor's 911 while being unable to regenerate itself — a permanent
  // starvation deadlock found by the chaos tests.
  token_ = Token{};
  last_copy_ = Token{};
  view_ = View{};
  seen_lineage_.clear();
  origin_state_.clear();
  pending_out_.clear();
  pending_bytes_ = 0;
  queue_depth_.set(0);
  exclusive_queue_.clear();
  pending_joins_.clear();
  pending_merge_invites_.clear();
  pending_foreign_.clear();
  readmit_after_.clear();
  join_contacts_.clear();
  join_contact_idx_ = 0;
  active_911_ = 0;
  awaiting_grant_.clear();
  round_dead_.clear();
  next_agreed_seq_ = 0;
  next_safe_seq_ = 0;
  probation_peer_ = kInvalidNode;
  probation_left_ = 0;
  suspects_.clear();
  last_token_rx_ = -1;
  state_since_ = env_.now();
  incarnation_ = static_cast<std::uint32_t>(env_.rng().next_u64());
}

void SessionNode::found() {
  assert(!started_);
  reset_protocol_state();
  started_ = true;
  leaving_ = false;
  if (on_started_) on_started_(true);
  Token t;
  t.lineage = env_.rng().next_u64();
  t.seq = 1;
  t.view_id = 1;
  t.ring = {id()};
  RC_INFO(kMod, "node %u g%u: founded group (lineage %llx)", id(),
          unsigned{group_}, static_cast<unsigned long long>(t.lineage));
  arm_bodyodor_timer();
  begin_eating(std::move(t));
  // Advertise at once, so members that found together merge within a few
  // token rotations; the timer repeats the advert every bodyodor_interval.
  send_bodyodors();
}

void SessionNode::join(std::vector<NodeId> contacts) {
  assert(!started_);
  assert(!contacts.empty());
  reset_protocol_state();
  started_ = true;
  leaving_ = false;
  if (on_started_) on_started_(true);
  set_state(State::kHungry, "join");
  join_contacts_ = std::move(contacts);
  join_contact_idx_ = 0;
  arm_bodyodor_timer();
  send_join_request();
}

void SessionNode::send_join_request() {
  if (!started_ || join_contacts_.empty()) return;
  // "A new node sends a 911 message to any node in the group" (§2.3);
  // retried round-robin across contacts until a token arrives.
  NodeId contact = join_contacts_[join_contact_idx_++ % join_contacts_.size()];
  Msg911 m{id(), 0, last_copy_.seq};
  transport_.send_on(group_, contact, encode_911(m));
  join_timer_ = env_.schedule(kJoinRetry, [this] {
    join_timer_ = 0;
    send_join_request();
  });
}

void SessionNode::leave() {
  if (!started_) return;
  leaving_ = true;
  if (state_ == State::kEating && token_.ring.size() <= 1) {
    complete_leave();
  }
  // Multi-node leave completes at the next eating cycle.
}

void SessionNode::complete_leave() {
  RC_INFO(kMod, "node %u g%u: leaving group", id(), unsigned{group_});
  if (state_ == State::kEating && token_.ring.size() > 1) {
    NodeId succ = token_.successor_of(id());  // before removing ourselves
    token_.remove(id());
    token_.view_id++;
    token_.seq++;
    transport_.send_on(group_, succ, encode_token_msg(token_));
  }
  stop();
}

void SessionNode::stop() {
  started_ = false;
  leaving_ = false;
  set_state(State::kIdle, "stop");
  active_911_ = 0;
  disarm_hungry_timer();
  if (hold_timer_) env_.cancel(hold_timer_), hold_timer_ = 0;
  if (bodyodor_timer_) env_.cancel(bodyodor_timer_), bodyodor_timer_ = 0;
  if (starving_timer_) env_.cancel(starving_timer_), starving_timer_ = 0;
  if (join_timer_) env_.cancel(join_timer_), join_timer_ = 0;
  if (on_started_) on_started_(false);
}

void SessionNode::set_eligible(std::vector<NodeId> eligible) {
  eligible_.clear();
  eligible_.insert(eligible.begin(), eligible.end());
}

// --- Public services ---------------------------------------------------------

MsgSeq SessionNode::multicast(Slice payload, Ordering ordering) {
  PendingMsg m;
  m.safe = ordering == Ordering::kSafe;
  m.seq = m.safe ? ++next_safe_seq_ : ++next_agreed_seq_;
  m.enqueued = env_.now();
  pending_bytes_ += payload.size();
  m.payload = std::move(payload);
  pending_out_.push_back(std::move(m));
  queue_depth_.set(static_cast<double>(pending_out_.size()));
  stats_.msgs_sent.inc();
  return pending_out_.back().seq;
}

std::optional<MsgSeq> SessionNode::try_multicast(Slice payload,
                                                Ordering ordering) {
  // Bounded queue: refuse before touching the sequence counters so a
  // stalled producer retries with the same next seq (no wire gaps).
  const bool msg_full = pending_out_.size() >= cfg_.max_queue_msgs;
  const bool byte_full =
      !pending_out_.empty() &&
      pending_bytes_ + payload.size() > cfg_.max_queue_bytes;
  if (msg_full || byte_full) {
    backpressure_stalls_.inc();
    return std::nullopt;
  }
  return multicast(std::move(payload), ordering);
}

void SessionNode::submit_open(NodeId member, Slice payload) {
  FrameBuilder w(payload.size() + 1);
  w.u8(static_cast<std::uint8_t>(SessionMsgType::kOpenSubmit));
  w.raw(payload.data(), payload.size());
  transport_.send_on(group_, member, w.finish());
}

void SessionNode::run_exclusive(std::function<void()> fn) {
  if (started_ && state_ == State::kEating) {
    // We hold the token: no other node can be EATING, run immediately.
    fn();
    return;
  }
  exclusive_queue_.push_back(std::move(fn));
}

// --- Message plumbing --------------------------------------------------------

void SessionNode::on_transport_message(NodeId src, Slice payload) {
  (void)src;
  if (!started_) return;
  SessionMsgType type;
  if (!peek_type(payload, type)) return;
  switch (type) {
    case SessionMsgType::kToken: {
      Token t;
      if (decode_token_msg(payload, t)) handle_token(std::move(t));
      break;
    }
    case SessionMsgType::k911: {
      Msg911 m;
      if (decode_911(payload, m)) handle_911(m);
      break;
    }
    case SessionMsgType::k911Reply: {
      Msg911Reply m;
      if (decode_911_reply(payload, m)) handle_911_reply(m);
      break;
    }
    case SessionMsgType::kBodyOdor: {
      MsgBodyOdor m;
      if (decode_bodyodor(payload, m)) handle_bodyodor(m);
      break;
    }
    case SessionMsgType::kOpenSubmit: {
      // Open group communication (§2.6): forward an outsider's message to
      // the whole group as our own multicast. The body aliases the inbound
      // datagram — no copy-out.
      multicast(payload.subslice(1));
      break;
    }
    default:
      RC_WARN(kMod, "node %u g%u: unknown session message type", id(),
              unsigned{group_});
  }
}

// --- Timers ------------------------------------------------------------------

void SessionNode::arm_hungry_timer() {
  disarm_hungry_timer();
  hungry_timer_ = env_.schedule(effective_hungry_timeout(), [this] {
    hungry_timer_ = 0;
    enter_starving();
  });
}

Time SessionNode::max_member_detection_bound() const {
  Time worst = 0;
  for (NodeId m : view_.members) {
    if (m != id()) {
      worst = std::max(worst, transport_.failure_detection_bound(m));
    }
  }
  return worst;
}

Time SessionNode::effective_hungry_timeout() const {
  if (!transport_.config().adaptive) return cfg_.hungry_timeout;
  // Derived from live transport state instead of an independent constant:
  // the token must survive one hold per member, a few full
  // failure-detection chains along the way (a removal re-sends the token),
  // and our own probation budget. Tracks the estimator both ways — snappy
  // 911 escalation on fast links, patience when measured RTTs inflate.
  const Time hold = std::max<Time>(cfg_.token_hold, micros(10));
  const Time ring =
      static_cast<Time>(std::max<std::size_t>(view_.members.size(), 1));
  const Time derived = ring * hold + (3 + cfg_.probation_passes) *
                                         max_member_detection_bound();
  return std::max<Time>(derived, millis(50));
}

Time SessionNode::effective_starving_retry() const {
  if (!transport_.config().adaptive) return kStarvingRetry;
  // A 911 round needs every reachable member's reply and every dead
  // member's failure-on-delivery before it can complete; retrying before
  // the detection bound elapses would abandon rounds that were about to
  // finish.
  return std::max<Time>(max_member_detection_bound() + millis(10), millis(20));
}

void SessionNode::disarm_hungry_timer() {
  if (hungry_timer_) env_.cancel(hungry_timer_), hungry_timer_ = 0;
}

void SessionNode::arm_hold_timer() {
  if (hold_timer_) env_.cancel(hold_timer_);
  // Clamp to a small positive hold: a zero hold in a singleton group would
  // re-enter the eating cycle at the same instant forever (virtual time
  // would never advance under the simulator).
  const Time hold = std::max<Time>(cfg_.token_hold, micros(10));
  // The pass deadline is anchored at the cycle's start, so the token
  // leaves `hold` after it arrived however long the visit's merge,
  // delivery and run_exclusive work took on a real clock (in virtual time
  // that work takes none). It is the one exact timer: a loop that rounds
  // its wakes would stretch every hold, and with it every rotation.
  const Time left = std::max<Time>(eating_since_ + hold - env_.now(), 0);
  hold_timer_ = env_.schedule_exact(left, [this] {
    hold_timer_ = 0;
    pass_token();
  });
}

void SessionNode::arm_bodyodor_timer() {
  if (bodyodor_timer_) env_.cancel(bodyodor_timer_);
  bodyodor_timer_ = env_.schedule(cfg_.bodyodor_interval, [this] {
    bodyodor_timer_ = 0;
    if (!started_) return;
    send_bodyodors();
    arm_bodyodor_timer();
  });
}

void SessionNode::deliver(NodeId origin, const Slice& payload, bool safe) {
  stats_.msgs_delivered.inc();
  if (on_deliver_) {
    on_deliver_(origin, payload, safe ? Ordering::kSafe : Ordering::kAgreed);
  }
}

}  // namespace raincore::session
