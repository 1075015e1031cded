// SessionNode ring protocol engine: token handling and the eating cycle
// (§2.2), 911 token recovery and join (§2.3), BODYODOR discovery and TBM
// merge (§2.4), agreed/safe delivery (§2.6), and the shared-detector
// suspicion fan-out used by multi-ring nodes. Node-level plumbing
// (construction, lifecycle, timers, dispatch) lives in session_node.cpp.
#include <cassert>

#include "common/log.h"
#include "session/session_node.h"

namespace raincore::session {

namespace {
constexpr const char* kMod = "session";
constexpr std::size_t kMaxLineagesTracked = 64;
/// Delivery watermarks retained per origin across its crash-restarts. Old
/// incarnations must stay suppressible for as long as token regeneration
/// can resurrect their messages; a handful is plenty — an incarnation's
/// messages retire within one or two token rounds of their last attach.
constexpr std::size_t kMaxIncarnationsPerOrigin = 8;

/// Stretches the rounds of the batches on `self`'s token so they still reach
/// the members of `old_ring` they are due at, wherever `new_ring` put them.
void stretch_displaced_rounds(NodeId self, const std::vector<NodeId>& old_ring,
                              const std::vector<NodeId>& new_ring,
                              std::vector<AttachedBatch>& batches) {
  // After this visit a batch is still due at the next attach - hops - 1
  // members of our ring. The splice keeps them right after us, in order,
  // unless the foreign ring already listed some of them (two lineages
  // naming one node): those keep their foreign positions, further along,
  // and a batch retired by its old hop count never reached them (DESIGN.md
  // §5b #17). Stretch each such round until it reaches them.
  const auto self_old = std::find(old_ring.begin(), old_ring.end(), self);
  const auto self_new = std::find(new_ring.begin(), new_ring.end(), self);
  if (self_old == old_ring.end() || self_new == new_ring.end()) return;
  const std::size_t p = static_cast<std::size_t>(self_old - old_ring.begin());
  const std::size_t q = static_cast<std::size_t>(self_new - new_ring.begin());
  for (AttachedBatch& b : batches) {
    const std::size_t attach = std::max<std::size_t>(1, b.ring_at_attach);
    const std::size_t visited = std::size_t{b.hops} + 1;  // this visit too
    if (visited >= attach) continue;
    std::size_t reach = 0;
    for (std::size_t k = 1; k <= attach - visited && k < old_ring.size(); ++k) {
      const NodeId m = old_ring[(p + k) % old_ring.size()];
      const auto at = std::find(new_ring.begin(), new_ring.end(), m);
      if (at == new_ring.end()) continue;
      const std::size_t d =
          (static_cast<std::size_t>(at - new_ring.begin()) + new_ring.size() -
           q) % new_ring.size();
      reach = std::max(reach, d);
    }
    if (visited + reach > attach) {
      b.ring_at_attach = static_cast<std::uint16_t>(visited + reach);
    }
  }
}

}  // namespace

// --- Token handling ----------------------------------------------------------

void SessionNode::note_lineage(std::uint64_t lineage, TokenSeq seq) {
  TokenSeq& s = seen_lineage_[lineage];
  if (seq > s) s = seq;
  while (seen_lineage_.size() > kMaxLineagesTracked) {
    // Evict the entry that is not our current lineage with the lowest key;
    // stale groups stop sending quickly so precision loss is harmless.
    auto it = seen_lineage_.begin();
    if (it->first == last_copy_.lineage) ++it;
    if (it == seen_lineage_.end()) break;
    seen_lineage_.erase(it);
  }
}

bool SessionNode::is_stale(const Token& t) const {
  auto it = seen_lineage_.find(t.lineage);
  return it != seen_lineage_.end() && t.seq <= it->second;
}

void SessionNode::handle_token(Token&& t) {
  stats_.tokens_received.inc();

  // A TBM token addressed to us is a merge invitation: hold it until our
  // own group's token arrives (§2.4). It belongs to a foreign lineage, so
  // the staleness check below must not apply.
  if (t.tbm && t.merge_target == id()) {
    RC_INFO(kMod, "node %u g%u: holds TBM token of group %u (lineage %llx)",
            id(), unsigned{group_}, t.group_id(),
            static_cast<unsigned long long>(t.lineage));
    pending_foreign_.push_back(std::move(t));
    if (state_ == State::kIdle || !last_copy_.has(id())) {
      // We have no group of our own (fresh joiner invited via discovery):
      // adopt the foreign token directly.
      Token adopted = std::move(pending_foreign_.back());
      pending_foreign_.pop_back();
      adopted.tbm = false;
      adopted.merge_target = kInvalidNode;
      adopted.seq++;
      begin_eating(std::move(adopted));
    }
    return;
  }

  if (is_stale(t)) {
    stats_.stale_tokens_dropped.inc();
    RC_DEBUG(kMod, "node %u g%u: dropped stale token seq=%llu", id(),
             unsigned{group_}, static_cast<unsigned long long>(t.seq));
    return;
  }

  if (!t.has(id())) {
    // A token whose membership excludes us (e.g. we were falsely removed
    // while it was in flight). Do not adopt; the 911 path re-joins us.
    stats_.stale_tokens_dropped.inc();
    return;
  }

  // Live token accepted: abandon any starving/join activity.
  if (active_911_ != 0) active_911_ = 0;
  if (starving_timer_) env_.cancel(starving_timer_), starving_timer_ = 0;
  if (join_timer_) env_.cancel(join_timer_), join_timer_ = 0;
  join_contacts_.clear();
  disarm_hungry_timer();

  if (last_token_rx_ >= 0) {
    stats_.roundtrip.record_time(env_.now() - last_token_rx_);
  }
  last_token_rx_ = env_.now();

  // Re-entry by adoption: we crash-restarted faster than the group could
  // detect it, founded a singleton, and now accept the group's live token,
  // which never stopped listing us. Its view id is unchanged, so no other
  // member would see a view change and layered services would never learn
  // that our state was reset (the lock manager's lowest member would not
  // re-announce its epoch). Bump the view id so every member sees one.
  if (!t.tbm && t.lineage != last_copy_.lineage &&
      last_copy_.ring.size() == 1 && last_copy_.ring.front() == id()) {
    t.view_id++;
  }

  begin_eating(std::move(t));
}

void SessionNode::begin_eating(Token&& t) {
  if (hold_timer_) env_.cancel(hold_timer_), hold_timer_ = 0;
  starving_rounds_ = 0;
  // The token is here: whatever pass was struggling has resolved, so any
  // successor on probation gets a fresh budget for its next incident.
  probation_peer_ = kInvalidNode;
  probation_left_ = 0;
  set_state(State::kEating, "begin_eating");
  token_ = std::move(t);
  eating_cycle();
}

void SessionNode::eating_cycle() {
  // The hold starts now: the work below runs inside it, not before it.
  eating_since_ = env_.now();

  // 1. Fold in any held foreign (TBM) tokens — the merge proper (§2.4).
  if (!pending_foreign_.empty()) {
    token_ = merge_tokens(std::move(token_));
  }

  note_lineage(token_.lineage, token_.seq);
  last_copy_ = token_;
  adopt_view_from(token_);

  // 2. Attach our own pending multicasts (§2.2: messages ride the token);
  //    they are then delivered through the same in-list-order pass as every
  //    other message, so the global delivery order is exactly attach order.
  //    This is the first of the visit's two attach points (pass_token has
  //    the second); both draw on one visit budget.
  visit_msgs_ = 0;
  visit_bytes_ = 0;
  attach_pending(token_);

  // 3. Deliver / age / retire piggybacked messages (§2.6).
  process_attached(token_);

  // 4. Admit joiners and issue at most one merge invitation (§2.3, §2.4).
  process_joins(token_);

  // 5. Act on suspicions fanned out by sibling rings' failure detections
  //    (shared-transport nodes): we hold the token, so a removal here is
  //    exactly as authoritative as one on a failed pass.
  process_suspects();

  // 6. Mutual exclusion service (§2.7): we are the unique EATING node.
  while (!exclusive_queue_.empty() && state_ == State::kEating) {
    auto fn = std::move(exclusive_queue_.front());
    exclusive_queue_.pop_front();
    fn();
  }

  if (leaving_) {
    complete_leave();
    return;
  }

  last_copy_ = token_;
  arm_hold_timer();
}

void SessionNode::process_attached(Token& t, std::size_t first) {
  // Delivery is strictly in list (= attach) order at batch granularity: an
  // unconfirmed safe batch *blocks* everything attached after it, so all
  // members deliver the mixed agreed/safe stream in one identical total
  // order (the same holdback discipline as Totem's safe delivery). Within
  // a batch the inner messages are delivered in index (= enqueue) order.
  // Batches before `first` were processed earlier this visit and stay put;
  // the ones from `first` on are compacted in place as they retire.
  bool blocked = first > 0 && holdback_;
  // An earlier-listed safe batch survives. Batches appended at pass time
  // (first > 0) carry hops 0 and cannot retire, so they never consult it.
  bool safe_pending_earlier = false;
  std::size_t out = first;
  for (std::size_t i = first; i < t.batches.size(); ++i) {
    AttachedBatch& b = t.batches[i];
    const std::uint32_t attach_ring =
        std::max<std::uint32_t>(1, b.ring_at_attach);
    if (!blocked) {
      const std::uint32_t retire_at = b.safe ? 2 * attach_ring : attach_ring;
      // Retire only when every node has had the chance to deliver: an
      // agreed batch must additionally wait out any earlier-listed safe
      // batch it may be held back behind at other nodes.
      if (b.hops >= retire_at && (b.safe || !safe_pending_earlier)) {
        continue;  // full round(s) complete everywhere: retire
      }

      OriginState& os = origin_watermarks(b.origin, b.incarnation);
      if (!b.safe) {
        deliver_batch(b, os.agreed);
      } else if (b.hops >= attach_ring) {
        // Second sighting: the token completed a full round since attach,
        // so every member has received the batch (§2.6 safe ordering).
        deliver_batch(b, os.safe);
      } else {
        // Safe batch not yet confirmed: hold back everything after it.
        blocked = true;
      }
    }
    if (b.safe) safe_pending_earlier = true;
    b.hops++;
    if (out != i) t.batches[out] = std::move(b);
    ++out;
  }
  t.batches.resize(out);
  holdback_ = blocked;
}

void SessionNode::deliver_batch(const AttachedBatch& b, MsgSeq& watermark) {
  if (b.count == 0 || b.last_seq() <= watermark) return;  // wholly duplicate
  MsgSeq& wm = watermark;
  b.for_each([&](std::uint32_t i, Slice body) {
    const MsgSeq seq = b.base_seq + i;
    // Per-message watermark check: a partially duplicated batch (token
    // regeneration resurrecting an already half-delivered batch, or a
    // duplicated batch frame) re-delivers nothing below the mark.
    if (seq > wm) {
      wm = seq;
      deliver(b.origin, body, b.safe);
    }
  });
}

SessionNode::OriginState& SessionNode::origin_watermarks(
    NodeId origin, std::uint32_t incarnation) {
  const auto key = std::make_pair(origin, incarnation);
  auto it = origin_state_.find(key);
  if (it != origin_state_.end()) return it->second;
  OriginState& fresh = origin_state_[key];
  fresh.stamp = ++origin_stamp_;
  // Bounded retention: evict this origin's oldest-seen incarnations (never
  // the one just added — it carries the newest stamp).
  const auto lo_key = std::make_pair(origin, std::uint32_t{0});
  for (;;) {
    auto lo = origin_state_.lower_bound(lo_key);
    auto oldest = origin_state_.end();
    std::size_t count = 0;
    for (auto i = lo; i != origin_state_.end() && i->first.first == origin;
         ++i) {
      ++count;
      if (oldest == origin_state_.end() ||
          i->second.stamp < oldest->second.stamp) {
        oldest = i;
      }
    }
    if (count <= kMaxIncarnationsPerOrigin) break;
    origin_state_.erase(oldest);
  }
  return origin_state_[key];
}

void SessionNode::attach_pending(Token& t) {
  if (pending_out_.empty()) return;

  // Adaptive flush: with a deadline configured, a visit whose backlog has
  // neither filled a batch (messages or bytes) nor aged past the deadline
  // defers — the next visit ships a fuller batch. flush_deadline == 0
  // drains every visit (the pre-batching behaviour), and a leaving node
  // always flushes so no message is stranded behind the deadline.
  if (cfg_.flush_deadline > 0 && !leaving_ &&
      pending_out_.size() < cfg_.max_batch_msgs &&
      pending_bytes_ < cfg_.max_batch_bytes &&
      env_.now() - pending_out_.front().enqueued < cfg_.flush_deadline) {
    batch_deferrals_.inc();
    return;
  }

  // Drain what is left of the visit budget (max_batch_msgs /
  // max_batch_bytes, shared with the visit's other attach point) as a run
  // of batch frames. Consecutive same-class messages share one frame —
  // their seqs are consecutive because each class has a monotonic counter
  // and refused try_multicast calls consume no seq — and a class flip
  // (agreed -> safe or back) closes the frame, preserving attach order at
  // batch granularity.
  const std::uint16_t ring_now = static_cast<std::uint16_t>(t.ring.size());
  auto budget_left = [this] {
    return visit_msgs_ < cfg_.max_batch_msgs &&
           visit_bytes_ < cfg_.max_batch_bytes;
  };
  while (!pending_out_.empty() && budget_left()) {
    const bool safe = pending_out_.front().safe;
    BatchBuilder b(id(), incarnation_, pending_out_.front().seq, safe);
    while (!pending_out_.empty() && pending_out_.front().safe == safe &&
           budget_left()) {
      PendingMsg m = std::move(pending_out_.front());
      pending_out_.pop_front();
      pending_bytes_ -= m.payload.size();
      ++visit_msgs_;
      // The cap is checked before the NEXT add, so an oversized message
      // still ships (alone).
      visit_bytes_ += m.payload.size();
      b.add(m.payload);
    }
    batch_fill_.record(static_cast<double>(b.count()));
    batch_msgs_.inc(b.count());
    batch_bytes_.inc(b.body_bytes());
    batches_attached_.inc();
    t.batches.push_back(b.finish(ring_now));
  }
  queue_depth_.set(static_cast<double>(pending_out_.size()));
}

void SessionNode::process_joins(Token& t) {
  bool changed = false;
  for (NodeId j : pending_joins_) {
    if (j == id() || t.has(j)) continue;
    if (auto it = readmit_after_.find(j);
        it != readmit_after_.end() && env_.now() < it->second) {
      // We removed this peer after a failed pass: let a member with a
      // working link admit it instead (the joiner keeps retrying).
      continue;
    }
    t.insert_after(id(), j);
    t.view_id++;
    changed = true;
    stats_.joins_processed.inc();
    RC_INFO(kMod, "node %u g%u: admitted joiner %u", id(), unsigned{group_}, j);
  }
  pending_joins_.clear();

  // One merge invitation at a time, and never while we ourselves hold a
  // foreign token or the token is already flagged.
  if (!t.tbm && pending_foreign_.empty()) {
    while (!pending_merge_invites_.empty()) {
      const MergeInvite inv = pending_merge_invites_.front();
      pending_merge_invites_.pop_front();
      const NodeId target = inv.sender;
      if (t.has(target)) continue;
      // Re-check the tie-break against the group we are now: a merge since
      // the advert may have lowered our group ID to or below the sender's,
      // and inviting it then can close a cycle of parked TBM tokens
      // (DESIGN.md §5b #14). The sender's group absorbs ours instead.
      if (inv.group_id >= t.group_id()) continue;
      if (auto it = readmit_after_.find(target);
          it != readmit_after_.end() && env_.now() < it->second) {
        continue;
      }
      t.insert_after(id(), target);  // target becomes our direct successor
      t.view_id++;
      t.tbm = true;
      t.merge_target = target;
      changed = true;
      RC_INFO(kMod, "node %u g%u: invites %u to merge (TBM)", id(),
              unsigned{group_}, target);
      break;
    }
  }

  if (changed) adopt_view_from(t);
}

Token SessionNode::merge_tokens(Token own) {
  Token merged = std::move(own);
  for (const Token& foreign : pending_foreign_) {
    Token f = foreign;
    // Splice our ring into the foreign ring right after ourselves,
    // preserving our ring order starting at our successor.
    NodeId insert_after = id();
    if (!f.has(id())) f.ring.push_back(id());
    auto pos = std::find(merged.ring.begin(), merged.ring.end(), id());
    std::size_t start = pos == merged.ring.end()
                            ? 0
                            : static_cast<std::size_t>(pos - merged.ring.begin()) + 1;
    for (std::size_t k = 0; k < merged.ring.size(); ++k) {
      NodeId n = merged.ring[(start + k) % merged.ring.size()];
      if (n == id() || f.has(n)) continue;
      f.insert_after(insert_after, n);
      insert_after = n;
    }
    stretch_displaced_rounds(id(), merged.ring, f.ring, merged.batches);
    // Concatenate the multicast batches of the two tokens (§2.4).
    f.batches.insert(f.batches.end(), merged.batches.begin(),
                     merged.batches.end());
    f.seq = std::max(f.seq, merged.seq) + 1;
    f.view_id = std::max(f.view_id, merged.view_id) + 1;
    f.tbm = false;
    f.merge_target = kInvalidNode;
    merged = std::move(f);
  }
  merged.lineage = env_.rng().next_u64();
  pending_foreign_.clear();
  stats_.merges.inc();
  RC_INFO(kMod, "node %u g%u: merged groups: ring size now %zu (lineage %llx)",
          id(), unsigned{group_}, merged.ring.size(),
          static_cast<unsigned long long>(merged.lineage));
  return merged;
}

void SessionNode::pass_token() {
  if (!started_ || state_ != State::kEating) return;
  // Second attach point: what was multicast during the hold leaves on this
  // pass instead of waiting a full rotation for the next arrival. The new
  // batches go behind everything already on the token and take the same
  // delivery step as the arrival-time attach (local delivery unless an
  // unconfirmed safe batch holds them back; hop 1 counted here).
  const std::size_t first_new = token_.batches.size();
  attach_pending(token_);
  process_attached(token_, first_new);
  // Delivery ran application handlers, and one may have stopped this node
  // (a leave it requested completes on the next visit, like any other).
  if (!started_ || state_ != State::kEating) return;
  token_.seq++;
  send_token_to_successor();
}

void SessionNode::send_token_to_successor() {
  NodeId succ = token_.successor_of(id());
  if (succ == id()) {
    // Singleton group: the token "circulates" by re-entering the eating
    // cycle each hold interval; seq keeps advancing.
    set_state(State::kEating, "singleton");
    eating_cycle();
    return;
  }

  note_lineage(token_.lineage, token_.seq);
  last_copy_ = token_;  // local copy reflects the token as sent (§2.3)
  const TokenSeq sent_seq = token_.seq;
  const std::uint64_t sent_lineage = token_.lineage;
  // Encode-once per hop: this is the only serialization of the token for
  // this pass. The transport frames it in place (the FrameBuilder slack)
  // and every retransmission — and both interfaces under kParallel —
  // shares that one buffer. A pass failure re-encodes only because the
  // membership changed (the failed successor is removed).
  Slice payload = encode_token_msg(token_);

  set_state(State::kHungry, "passed");
  arm_hungry_timer();
  stats_.tokens_passed.inc();

  transport_.send_on(
      group_, succ, std::move(payload), /*delivered=*/{},
      /*failed=*/[this, succ, sent_seq, sent_lineage](transport::TransferId, NodeId) {
        if (!started_) return;
        // Ignore the notification if the world moved on while the transport
        // was retrying (we accepted a newer token or regenerated).
        if (state_ != State::kHungry || last_copy_.lineage != sent_lineage ||
            last_copy_.seq != sent_seq) {
          return;
        }
        on_pass_failure(succ);
      });
}

void SessionNode::on_pass_failure(NodeId failed) {
  // Probation (adaptive failure detection): a pass failure on a link whose
  // peer was heard from within the recent past is more likely loss than
  // death. Burn a bounded extra attempt budget before the paper's
  // aggressive removal — this is what turns 5% packet loss from a steady
  // stream of false removals into retries.
  if (transport_.config().adaptive && cfg_.probation_passes > 0) {
    if (probation_peer_ != failed) {
      probation_peer_ = failed;
      probation_left_ = cfg_.probation_passes;
    }
    const Time window = 2 * transport_.failure_detection_bound(failed);
    if (probation_left_ > 0 && transport_.since_heard(failed) <= window) {
      --probation_left_;
      stats_.probation_retries.inc();
      RC_INFO(kMod,
              "node %u g%u: pass to %u failed but peer is recently alive; "
              "probation retry (%d left)",
              id(), unsigned{group_}, failed, probation_left_);
      resend_pass_under_probation(failed);
      return;
    }
  }
  probation_peer_ = kInvalidNode;

  // Aggressive failure detection (§2.2): the failure-on-delivery
  // notification immediately removes the unreachable successor from the
  // membership; the token continues to the next healthy node.
  RC_INFO(kMod, "node %u g%u: pass to %u failed; removing it from membership",
          id(), unsigned{group_}, failed);
  stats_.removals.inc();
  if (on_removal_) on_removal_(failed);
  readmit_after_[failed] = env_.now() + kReadmitBackoff;
  Token t = last_copy_;
  t.remove(failed);
  if (t.merge_target == failed) {
    t.tbm = false;
    t.merge_target = kInvalidNode;
  }
  t.view_id++;
  t.seq++;
  set_state(State::kEating, "pass_failure");
  disarm_hungry_timer();
  token_ = std::move(t);
  adopt_view_from(token_);
  send_token_to_successor();
}

void SessionNode::resend_pass_under_probation(NodeId succ) {
  const TokenSeq sent_seq = last_copy_.seq;
  const std::uint64_t sent_lineage = last_copy_.lineage;
  // Extend the starvation clock over the extra budget so the probation
  // attempt cannot itself push us into a spurious 911.
  arm_hungry_timer();
  transport_.send_on(
      group_, succ, encode_token_msg(last_copy_),
      /*delivered=*/[this](transport::TransferId, NodeId peer) {
        if (!started_) return;
        // The extra attempt got through: one false removal avoided.
        stats_.probation_saves.inc();
        if (probation_peer_ == peer) probation_peer_ = kInvalidNode;
      },
      /*failed=*/[this, succ, sent_seq, sent_lineage](transport::TransferId,
                                                      NodeId) {
        if (!started_) return;
        if (state_ != State::kHungry || last_copy_.lineage != sent_lineage ||
            last_copy_.seq != sent_seq) {
          return;
        }
        on_pass_failure(succ);
      });
}

void SessionNode::adopt_view_from(const Token& t) {
  View v;
  v.view_id = t.view_id;
  v.group_id = t.group_id();
  v.members = t.ring;
  if (v == view_) return;
  const std::size_t old_size = view_.members.size();
  // Membership removal is the transport's cue to prune per-peer state
  // (sequence/epoch, dedup window, RTT/health estimates). A departed peer
  // that later rejoins starts a fresh send epoch, so its restarted
  // sequence space cannot collide with the forgotten dedup window. On a
  // shared transport the peer may still be a live member of a sibling
  // ring, whose frames keep flowing — forgetting only resets the reliable-
  // delivery bookkeeping, which both sides rebuild on next contact.
  std::vector<NodeId> departed;
  for (NodeId m : view_.members) {
    if (m != id() && !v.has(m)) departed.push_back(m);
  }
  view_ = std::move(v);
  for (NodeId m : departed) transport_.forget_peer(m);
  stats_.view_changes.inc();
  ring_size_.set(static_cast<double>(view_.members.size()));
  if (on_view_) on_view_(view_);

  // Quorum decider (§2.4 split-brain prevention strategy 1): "if N is the
  // maximum size of the group, when the size of the group is N/2 or less,
  // every node in the group shuts down itself." Applies only when the
  // group *shrinks* — a forming group legitimately passes through small
  // sizes on its way up.
  if (cfg_.quorum_of > 0 && started_ && view_.members.size() < old_size &&
      view_.members.size() * 2 <= cfg_.quorum_of) {
    RC_WARN(kMod, "node %u g%u: below quorum (%zu of %zu); shutting down",
            id(), unsigned{group_}, view_.members.size(), cfg_.quorum_of);
    stop();
    if (on_quorum_shutdown_) on_quorum_shutdown_();
  }
}

// --- Shared-detector suspicion fan-out ---------------------------------------

void SessionNode::note_peer_suspect(NodeId peer) {
  if (!started_ || peer == id()) return;
  if (!view_.has(peer)) return;
  suspects_[peer] = env_.now();
  // Holding the token we can act immediately; otherwise the stamp waits
  // for our next possession (and expires if the peer turns out alive).
  if (state_ == State::kEating) {
    process_suspects();
    return;
  }
  // The stuck-passer shortcut — where the fan-out actually pays: our own
  // pass is in flight to this very peer, and a sibling ring's transfer has
  // already proven it silent for a full detection bound. Waiting out our
  // own transport bound would re-pay the detection cost once per ring; cut
  // over now. The superseded transfer's eventual failure callback is
  // ignored by the seq/lineage guard, and a late delivery of the old token
  // is suppressed by the receivers' staleness notes — the same recovery
  // path an ordinary false removal takes.
  if (state_ == State::kHungry && last_copy_.has(id()) &&
      last_copy_.successor_of(id()) == peer &&
      transport_.since_heard(peer) >=
          transport_.failure_detection_bound(peer)) {
    suspects_.erase(peer);
    suspect_removals_.inc();
    RC_INFO(kMod,
            "node %u g%u: pass to %u cut over on fanned-out suspicion "
            "(globally silent past its bound)",
            id(), unsigned{group_}, peer);
    on_pass_failure(peer);
  }
}

void SessionNode::process_suspects() {
  if (!started_ || state_ != State::kEating || suspects_.empty()) return;
  bool changed = false;
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    const NodeId peer = it->first;
    const Time stamped = it->second;
    const Time bound = transport_.failure_detection_bound(peer);
    // Consumed (peer already gone) or expired (too old to trust) stamps
    // are dropped; fresh ones that merely fail the silence check below
    // stay for the next possession — the peer may cross its bound yet.
    if (peer == id() || !token_.has(peer) ||
        env_.now() - stamped > 2 * bound) {
      it = suspects_.erase(it);
      continue;
    }
    // Conservative double check before a removal this ring never observed
    // itself: the peer must have been silent across ALL rings on the
    // shared transport for at least its detection bound. A single frame
    // to any sibling ring clears it.
    if (transport_.since_heard(peer) < bound) {
      ++it;
      continue;
    }
    RC_INFO(kMod,
            "node %u g%u: removing %u on fanned-out suspicion "
            "(globally silent)",
            id(), unsigned{group_}, peer);
    stats_.removals.inc();
    suspect_removals_.inc();
    if (on_removal_) on_removal_(peer);
    readmit_after_[peer] = env_.now() + kReadmitBackoff;
    token_.remove(peer);
    if (token_.merge_target == peer) {
      token_.tbm = false;
      token_.merge_target = kInvalidNode;
    }
    token_.view_id++;
    changed = true;
    it = suspects_.erase(it);
  }
  if (changed) {
    token_.seq++;
    last_copy_ = token_;
    adopt_view_from(token_);
  }
}

// --- 911 token recovery and join (§2.3) --------------------------------------

void SessionNode::enter_starving() {
  if (!started_ || state_ == State::kEating) return;
  set_state(State::kStarving, "starving");
  stats_.starvations.inc();
  RC_INFO(kMod, "node %u g%u: STARVING (last copy seq %llu)", id(),
          unsigned{group_}, static_cast<unsigned long long>(last_copy_.seq));
  start_911_round();
}

void SessionNode::start_911_round() {
  if (!started_ || state_ != State::kStarving) return;
  // Merge-wedge escape: we are the target of a merge, parked with the
  // inviter group's live token, and our own group's token is not coming
  // back (round after round of denials — the copies of our old lineage are
  // scattered across crisscrossed views and arbitration can cycle). The
  // parked token is exclusively ours, so adopt it: the inviter group
  // recovers through it immediately, and our old group regenerates without
  // us and re-merges through discovery.
  if (!pending_foreign_.empty() && starving_rounds_ >= 3) {
    Token adopted = std::move(pending_foreign_.front());
    pending_foreign_.erase(pending_foreign_.begin());
    adopted.tbm = false;
    adopted.merge_target = kInvalidNode;
    adopted.seq++;
    RC_INFO(kMod,
            "node %u g%u: adopts parked TBM token (lineage %llx) after %d "
            "starving rounds",
            id(), unsigned{group_},
            static_cast<unsigned long long>(adopted.lineage),
            starving_rounds_);
    begin_eating(std::move(adopted));
    return;
  }
  ++starving_rounds_;
  rounds_911_.inc();
  round_dead_.clear();
  awaiting_grant_.clear();
  for (NodeId n : last_copy_.ring) {
    if (n != id()) awaiting_grant_.insert(n);
  }
  if (awaiting_grant_.empty()) {
    regenerate_token();
    return;
  }
  active_911_ = next_911_id_++;
  Msg911 m{id(), active_911_, last_copy_.seq};
  const std::uint64_t round = active_911_;
  for (NodeId n : awaiting_grant_) {
    transport_.send_on(
        group_, n, encode_911(m), /*delivered=*/{},
        /*failed=*/[this, n, round](transport::TransferId, NodeId) {
          if (!started_ || active_911_ != round) return;
          // Peer unreachable: it cannot deny, and it will not be part of
          // the regenerated membership.
          round_dead_.insert(n);
          awaiting_grant_.erase(n);
          finish_911_round_if_complete();
        });
  }
  // Round watchdog: abandon and retry if replies stall (e.g. lost by a
  // crash that the transport has not yet classified).
  if (starving_timer_) env_.cancel(starving_timer_);
  starving_timer_ = env_.schedule(effective_starving_retry(), [this, round] {
    starving_timer_ = 0;
    if (!started_ || state_ != State::kStarving) return;
    if (active_911_ == round) active_911_ = 0;
    start_911_round();
  });
}

void SessionNode::finish_911_round_if_complete() {
  if (active_911_ == 0 || !awaiting_grant_.empty()) return;
  active_911_ = 0;
  if (starving_timer_) env_.cancel(starving_timer_), starving_timer_ = 0;
  regenerate_token();
}

void SessionNode::regenerate_token() {
  // Unanimous grant: we hold the most recent local copy, so we resurrect
  // the token from it — including any piggybacked messages, which is what
  // makes the multicast atomic across token loss (§2.6).
  Token t = last_copy_;
  for (NodeId dead : round_dead_) {
    if (t.remove(dead)) {
      t.view_id++;
      if (on_removal_) on_removal_(dead);
    }
  }
  round_dead_.clear();
  t.seq = last_copy_.seq + 1;
  t.tbm = false;
  t.merge_target = kInvalidNode;
  if (!t.has(id())) {
    t.ring.push_back(id());
    t.view_id++;
  }
  stats_.regenerations.inc();
  RC_INFO(kMod, "node %u g%u: regenerated token at seq %llu (ring %zu)", id(),
          unsigned{group_}, static_cast<unsigned long long>(t.seq),
          t.ring.size());
  begin_eating(std::move(t));
}

void SessionNode::handle_911(const Msg911& m) {
  // Join unification (§2.3): a 911 from a non-member is a join request.
  if (!view_.has(m.requester)) {
    pending_joins_.insert(m.requester);
  }

  // A parked TBM token only vouches for its own lineage: deny recovery to
  // members of the parked ring (their token is alive, right here), but a
  // requester from *our* group is recovering a different lineage — blanket
  // denial would wedge our group's 911 forever while we wait for its token.
  bool holds_requesters_token = false;
  for (const Token& f : pending_foreign_) {
    if (f.has(m.requester)) {
      holds_requesters_token = true;
      break;
    }
  }

  bool grant;
  if (state_ == State::kEating || holds_requesters_token) {
    grant = false;  // the token is right here — nothing to regenerate
  } else if (last_copy_.seq > m.last_copy_seq) {
    grant = false;  // we hold a more recent copy (§2.3 arbitration)
  } else if (last_copy_.seq == m.last_copy_seq && id() < m.requester) {
    grant = false;  // deterministic tie-break
  } else {
    grant = true;
  }
  if (!grant) stats_.denials_sent.inc();

  // Join requests (request_id 0) need no reply; the joiner just retries
  // until the token arrives.
  if (m.request_id == 0) return;

  Msg911Reply reply{id(), m.request_id, grant, last_copy_.seq};
  transport_.send_on(group_, m.requester, encode_911_reply(reply));
}

void SessionNode::handle_911_reply(const Msg911Reply& m) {
  if (active_911_ == 0 || m.request_id != active_911_) return;
  if (!m.granted) {
    // Someone holds a newer copy (or the token itself): our round is over;
    // stay STARVING and let the watchdog retry if no token shows up.
    RC_DEBUG(kMod, "node %u g%u: 911 denied by %u (copy seq %llu)", id(),
             unsigned{group_}, m.responder,
             static_cast<unsigned long long>(m.responder_copy_seq));
    active_911_ = 0;
    awaiting_grant_.clear();
    return;
  }
  awaiting_grant_.erase(m.responder);
  finish_911_round_if_complete();
}

// --- Discovery and merge (§2.4) -----------------------------------------------

void SessionNode::send_bodyodors() {
  if (!started_ || view_.members.empty()) return;
  MsgBodyOdor m{id(), view_.group_id};
  for (NodeId e : eligible_) {
    if (e == id() || view_.has(e)) continue;
    transport_.send_unreliable_on(group_, e, encode_bodyodor(m));
  }
}

void SessionNode::handle_bodyodor(const MsgBodyOdor& m) {
  if (eligible_.count(m.sender) == 0) return;
  if (view_.has(m.sender)) return;
  if (view_.members.empty()) return;  // not in a group ourselves
  // A newer advert from a sender already queued refreshes its group ID;
  // process_joins applies the tie-break to whatever the newest one said.
  for (MergeInvite& queued : pending_merge_invites_) {
    if (queued.sender == m.sender) {
      queued.group_id = m.group_id;
      return;
    }
  }
  // Merge tie-break (§2.4): only a lower group ID is invited, which makes
  // the merge graph acyclic and therefore deadlock-free.
  if (m.group_id >= view_.group_id) return;
  pending_merge_invites_.push_back({m.sender, m.group_id});
}

}  // namespace raincore::session
