#include "transport/transport.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "common/log.h"

namespace raincore::transport {

namespace {
constexpr const char* kMod = "transport";
// type u8 + group u16 + epoch u32 + seq u64
constexpr std::size_t kDataHeader = 15;
constexpr std::size_t kRawHeader = 3;    // type u8 + group u16
constexpr std::size_t kAckLen = 13;      // type u8 + epoch u32 + seq u64
constexpr std::size_t kChecksumLen = 4;  // trailing FNV-1a u32
/// Adaptive mode: per-attempt RTO multiplier (exponential backoff across
/// the retries of one transfer).
constexpr double kRtoBackoff = 2.0;
/// Adaptive mode: each attempt waits rto + uniform[0, rto * kRtoJitter),
/// drawn from a node-seeded stream, so synchronized retry storms decohere
/// without breaking seeded-run replayability.
constexpr double kRtoJitter = 0.1;
/// Per-peer cap on the receiver's duplicate-suppression set
/// (PeerRecv::above); overflow advances the watermark over the oldest gap.
constexpr std::size_t kMaxRecvTracked = 4096;

/// FNV-1a over the frame body. Every frame carries this as a trailing u32:
/// the end-to-end integrity check that turns in-flight bit flips (modelled
/// by SimNetwork's corruption fault class, real on hostile networks) into
/// clean drops + retransmission instead of corrupted protocol state.
std::uint32_t frame_checksum(const std::uint8_t* data, std::size_t n) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

void put_le16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Seals a writer built with kChecksumLen tailroom: the checksum lands in
/// the tailroom in place and the full frame view comes back.
Slice seal_frame(ByteWriter&& w) {
  Slice body = w.finish();
  auto f = body.expand(0, kChecksumLen);
  assert(f && "seal_frame requires kChecksumLen tailroom");
  put_le32(f->tail, frame_checksum(f->frame.data(), body.size()));
  return std::move(f->frame);
}
}  // namespace

ReliableTransport::ReliableTransport(net::NodeEnv& env, TransportConfig cfg)
    : env_(env),
      cfg_(cfg),
      jitter_rng_(0x9e3779b97f4a7c15ULL ^
                  (static_cast<std::uint64_t>(env.node()) * 0xff51afd7ed558ccdULL)) {
  health_gauge_.set(1.0);
  env_.set_receiver([this](net::Datagram&& d) { on_datagram(std::move(d)); });
}

ReliableTransport::~ReliableTransport() {
  for (auto& [id, f] : inflight_) {
    if (f.timer) env_.cancel(f.timer);
  }
}

Time ReliableTransport::failure_detection_bound(NodeId peer) const {
  const std::uint8_t n_addrs = peer_iface_count();
  int rounds = cfg_.attempts_per_address;
  if (cfg_.strategy == SendStrategy::kSequential) rounds *= n_addrs;
  if (!cfg_.adaptive) return cfg_.rto * rounds;
  // Live bound: the worst current RTO across the peer's links walked
  // through the full backoff schedule, each attempt padded by the maximum
  // jitter it could draw (the draw is strictly below rto * jitter, so +1 ns
  // covers truncation).
  const RtoBounds b = rto_bounds();
  const Time base = rtt_.max_rto(peer, n_addrs, b);
  Time bound = 0;
  double mult = 1.0;
  for (int k = 0; k < rounds; ++k) {
    const Time rto =
        std::clamp(static_cast<Time>(static_cast<double>(base) * mult),
                   b.min_rto, b.max_rto);
    bound += rto + static_cast<Time>(static_cast<double>(rto) * kRtoJitter) + 1;
    mult *= kRtoBackoff;
  }
  return bound;
}

Time ReliableTransport::since_heard(NodeId peer) const {
  auto it = last_heard_.find(peer);
  if (it == last_heard_.end()) return std::numeric_limits<Time>::max();
  return env_.now() - it->second;
}

void ReliableTransport::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (!enabled_) {
    for (auto& [id, f] : inflight_) {
      if (f.timer) env_.cancel(f.timer);
    }
    inflight_.clear();
    ack_index_.clear();
  }
}

void ReliableTransport::forget_peer(NodeId peer) {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.dst == peer) {
      if (it->second.timer) env_.cancel(it->second.timer);
      ack_index_.erase({peer, it->second.wire_seq});
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  send_state_.erase(peer);
  recv_state_.erase(peer);
  last_heard_.erase(peer);
  rtt_.forget(peer);
  health_.forget(peer);
  refresh_health_gauge();
}

void ReliableTransport::set_group_handler(MuxGroup group, MessageFn fn) {
  if (fn) {
    handlers_[group] = std::move(fn);
  } else {
    handlers_.erase(group);
  }
}

void ReliableTransport::deliver(MuxGroup group, NodeId src, Slice payload) {
  auto it = handlers_.find(group);
  if (it == handlers_.end()) {
    unknown_group_drops_.inc();
    return;
  }
  it->second(src, std::move(payload));
}

TransferId ReliableTransport::send_on(MuxGroup group, NodeId dst,
                                      Slice payload, DeliveredFn delivered,
                                      FailedFn failed) {
  if (!enabled_) return 0;
  TransferId id = next_transfer_id_++;
  sends_.inc();
  PeerSend& ps = send_state_[dst];
  if (ps.epoch == 0) ps.epoch = ++epoch_counter_;
  InFlight f;
  f.dst = dst;
  f.group = group;
  f.epoch = ps.epoch;
  f.wire_seq = ++ps.next_seq;
  f.started = env_.now();
  f.frame = build_data_frame(std::move(payload), group, f.epoch, f.wire_seq);
  f.delivered = std::move(delivered);
  f.failed = std::move(failed);
  ack_index_[{dst, f.wire_seq}] = id;
  inflight_.emplace(id, std::move(f));
  attempt(id);
  return id;
}

Slice ReliableTransport::build_data_frame(Slice&& payload, MuxGroup group,
                                          std::uint32_t epoch,
                                          std::uint64_t seq) {
  // Fast path: the payload was encoded with wire slack (FrameBuilder) and
  // nobody else holds its storage — header and checksum land in place, so
  // the session's encode buffer IS the wire frame.
  if (auto f = payload.expand(kDataHeader, kChecksumLen)) {
    f->head[0] = static_cast<std::uint8_t>(WireType::kData);
    put_le16(f->head + 1, group);
    put_le32(f->head + 3, epoch);
    put_le64(f->head + 7, seq);
    std::size_t body = f->frame.size() - kChecksumLen;
    put_le32(f->tail, frame_checksum(f->frame.data(), body));
    frames_inplace_.inc();
    return std::move(f->frame);
  }
  // Slack-less or shared payload: one re-copy into a framed buffer.
  frame_copies_.inc();
  wire_stats().copies.inc();
  wire_stats().bytes_copied.inc(payload.size());
  ByteWriter w(0, kChecksumLen, kDataHeader + payload.size());
  w.u8(static_cast<std::uint8_t>(WireType::kData));
  w.u16(group);
  w.u32(epoch);
  w.u64(seq);
  w.raw(payload.data(), payload.size());
  return seal_frame(std::move(w));
}

void ReliableTransport::send_unreliable_on(MuxGroup group, NodeId dst,
                                           Slice payload) {
  if (!enabled_) return;
  if (auto f = payload.expand(kRawHeader, kChecksumLen)) {
    f->head[0] = static_cast<std::uint8_t>(WireType::kRaw);
    put_le16(f->head + 1, group);
    std::size_t body = f->frame.size() - kChecksumLen;
    put_le32(f->tail, frame_checksum(f->frame.data(), body));
    env_.send(net::Address{dst, 0}, std::move(f->frame), 0);
    return;
  }
  wire_stats().copies.inc();
  wire_stats().bytes_copied.inc(payload.size());
  ByteWriter w(0, kChecksumLen, kRawHeader + payload.size());
  w.u8(static_cast<std::uint8_t>(WireType::kRaw));
  w.u16(group);
  w.raw(payload.data(), payload.size());
  send_frame(net::Address{dst, 0}, std::move(w), 0);
}

void ReliableTransport::send_frame(const net::Address& to, ByteWriter&& frame,
                                   std::uint8_t from_iface) {
  env_.send(to, seal_frame(std::move(frame)), from_iface);
}

void ReliableTransport::transmit(const InFlight& f, std::uint8_t to_iface) {
  // Local interface i sends to the peer's interface i, so that redundant
  // links form independent physical paths. The pre-built frame is shared
  // by reference: a retransmission or parallel-interface send costs a
  // refcount bump, not a copy.
  frames_out_.inc();
  env_.send(net::Address{f.dst, to_iface}, f.frame, to_iface);
}

void ReliableTransport::refresh_health_gauge() {
  if (cfg_.adaptive) health_gauge_.set(health_.worst());
}

Time ReliableTransport::attempt_rto(const InFlight& f, int backoff_step) {
  if (!cfg_.adaptive) return cfg_.rto;
  const RtoBounds b = rto_bounds();
  // Single-link attempts pace on that link's estimate; parallel rounds pace
  // on the slowest link so a slow path is not retried before its ack could
  // possibly arrive.
  const Time base = f.last_tx.size() == 1
                        ? rtt_.rto(f.dst, f.last_tx.front(), b)
                        : rtt_.max_rto(f.dst, peer_iface_count(), b);
  double scaled = static_cast<double>(base);
  for (int k = 0; k < backoff_step; ++k) scaled *= kRtoBackoff;
  const Time rto =
      std::clamp(static_cast<Time>(scaled), b.min_rto, b.max_rto);
  rto_gauge_.set(static_cast<double>(rto));
  const Time jitter = static_cast<Time>(
      static_cast<double>(rto) * kRtoJitter * jitter_rng_.next_double());
  return rto + jitter;
}

void ReliableTransport::attempt(TransferId id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  InFlight& f = it->second;
  const std::uint8_t n_addrs = peer_iface_count();
  f.last_tx.clear();

  switch (cfg_.strategy) {
    case SendStrategy::kSequential: {
      if (f.addr_order.empty()) {
        if (cfg_.adaptive) {
          f.addr_order = health_.ranked(f.dst, n_addrs);
        } else {
          f.addr_order.resize(n_addrs);
          std::iota(f.addr_order.begin(), f.addr_order.end(), std::uint8_t{0});
        }
      }
      if (f.attempts_done >= cfg_.attempts_per_address) {
        f.attempts_done = 0;
        ++f.addr_index;
      }
      if (f.addr_index >= n_addrs) {
        finish(id, /*ok=*/false);
        return;
      }
      const std::uint8_t addr = f.addr_order[f.addr_index];
      transmit(f, addr);
      f.last_tx.push_back(addr);
      ++f.attempts_done;
      break;
    }
    case SendStrategy::kParallel: {
      if (f.rounds_done >= cfg_.attempts_per_address) {
        finish(id, /*ok=*/false);
        return;
      }
      for (std::uint8_t a = 0; a < n_addrs; ++a) {
        transmit(f, a);
        f.last_tx.push_back(a);
      }
      ++f.rounds_done;
      break;
    }
  }

  const int backoff_step = f.total_attempts;
  ++f.total_attempts;
  f.timer = env_.schedule(attempt_rto(f, backoff_step), [this, id] {
    task_switches_.inc();  // retransmission timer wakes the GC stack
    retries_.inc();
    on_attempt_timeout(id);
  });
}

void ReliableTransport::on_attempt_timeout(TransferId id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  InFlight& f = it->second;
  f.timer = 0;
  f.retransmitted = true;  // Karn: any later ack is ambiguous for RTT
  if (cfg_.adaptive && !f.last_tx.empty()) {
    for (std::uint8_t a : f.last_tx) health_.on_timeout(f.dst, a);
    refresh_health_gauge();
  }
  attempt(id);
}

void ReliableTransport::finish(TransferId id, bool ok, std::uint8_t ack_iface) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  InFlight f = std::move(it->second);
  if (f.timer) env_.cancel(f.timer);
  ack_index_.erase({f.dst, f.wire_seq});
  inflight_.erase(it);
  if (ok) {
    delivered_.inc();
    const Time latency = env_.now() - f.started;
    ack_latency_.record_time(latency);
    if (cfg_.adaptive) {
      health_.on_success(f.dst, ack_iface);
      refresh_health_gauge();
      if (!f.retransmitted) {
        // Karn's algorithm: only unambiguous (never-retransmitted) acks
        // feed the estimator.
        rtt_.at(f.dst, ack_iface).sample(latency);
        rtt_samples_.inc();
      }
    }
    if (f.delivered) f.delivered(id, f.dst);
  } else {
    fod_.inc();
    RC_DEBUG(kMod, "node %u: failure-on-delivery to %u (transfer %llu)",
             env_.node(), f.dst, static_cast<unsigned long long>(id));
    // Node-level observer first (suspicion stamps for every other ring
    // sharing this detector), then the transfer's own failure notification.
    if (on_failure_observed_) on_failure_observed_(f.dst, f.group);
    if (f.failed) f.failed(id, f.dst);
  }
}

std::size_t ReliableTransport::recv_tracked(NodeId peer) const {
  auto it = recv_state_.find(peer);
  return it != recv_state_.end() ? it->second.above.size() : 0;
}

void ReliableTransport::on_datagram(net::Datagram&& d) {
  if (!enabled_) return;
  task_switches_.inc();  // datagram arrival wakes the GC stack
  // Integrity first: a frame whose trailing checksum does not match its
  // body was corrupted in flight (or forged) and is dropped before any
  // parsing — retransmission recovers the transfer.
  if (d.payload.size() < 1 + kChecksumLen) return;
  std::size_t body = d.payload.size() - kChecksumLen;
  ByteReader tail(d.payload.data() + body, kChecksumLen);
  if (tail.u32() != frame_checksum(d.payload.data(), body)) {
    checksum_drops_.inc();
    return;
  }
  last_heard_[d.src.node] = env_.now();
  ByteReader r(d.payload.data(), body);
  auto type = static_cast<WireType>(r.u8());
  switch (type) {
    case WireType::kData: {
      MuxGroup group = r.u16();
      std::uint32_t epoch = r.u32();
      std::uint64_t seq = r.u64();
      if (!r.ok() || body < kDataHeader) return;
      PeerRecv& pr = recv_state_[d.src.node];
      if (epoch < pr.epoch) {
        // Retransmission from a sender context we have already superseded
        // (the peer was forgotten and re-contacted): not acked — that
        // transfer's bookkeeping no longer exists at the sender either.
        stale_epoch_drops_.inc();
        return;
      }
      if (epoch > pr.epoch) {
        // The sender restarted its sequence space toward us; the old dedup
        // window would swallow its fresh seqs as "duplicates". Adopt.
        pr.epoch = epoch;
        pr.watermark = 0;
        pr.above.clear();
      }
      // Always acknowledge, even duplicates: the original ack may be lost.
      // Acks carry no group — wire_seq/epoch are per-peer, shared by every
      // ring on the node, so resolution is group-agnostic.
      ByteWriter ack(0, kChecksumLen, kAckLen);
      ack.u8(static_cast<std::uint8_t>(WireType::kAck));
      ack.u32(epoch);
      ack.u64(seq);
      send_frame(d.src, std::move(ack), d.dst.iface);

      if (seq <= pr.watermark || pr.above.count(seq) > 0) {
        dup_drops_.inc();
        return;
      }
      pr.above.insert(seq);
      while (pr.above.count(pr.watermark + 1) > 0) {
        pr.above.erase(pr.watermark + 1);
        ++pr.watermark;
      }
      // A transfer abandoned by the sender (failure-on-delivery) leaves a
      // permanent gap below us; skip over stale gaps so `above` stays
      // bounded. The sender never retransmits an abandoned seq, so treating
      // the gap as seen is safe. The cap also defuses a hostile peer
      // spraying far-future sequence numbers to exhaust receiver memory.
      while (pr.above.size() > kMaxRecvTracked) {
        pr.watermark = *pr.above.begin();
        pr.above.erase(pr.above.begin());
        while (pr.above.count(pr.watermark + 1) > 0) {
          pr.above.erase(pr.watermark + 1);
          ++pr.watermark;
        }
      }
      // Zero-copy delivery: the payload view aliases the datagram.
      deliver(group, d.src.node,
              d.payload.subslice(kDataHeader, body - kDataHeader));
      break;
    }
    case WireType::kAck: {
      std::uint32_t epoch = r.u32();
      std::uint64_t seq = r.u64();
      if (!r.ok()) return;
      auto st = send_state_.find(d.src.node);
      if (st == send_state_.end() || st->second.epoch != epoch) {
        // Ack for a transfer from before forget_peer — nothing to resolve.
        stale_epoch_drops_.inc();
        return;
      }
      auto it = ack_index_.find({d.src.node, seq});
      // The ack's source interface is the peer-side interface our frame
      // arrived on (interfaces pair i<->i), i.e. the link that delivered.
      if (it != ack_index_.end()) {
        finish(it->second, /*ok=*/true, d.src.iface);
      }
      break;
    }
    case WireType::kRaw: {
      MuxGroup group = r.u16();
      if (!r.ok() || body <= kRawHeader) return;
      deliver(group, d.src.node, d.payload.subslice(kRawHeader, body - kRawHeader));
      break;
    }
    default:
      RC_WARN(kMod, "node %u: dropping malformed datagram from %u", env_.node(),
              d.src.node);
  }
}

}  // namespace raincore::transport
