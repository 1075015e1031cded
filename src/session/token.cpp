#include "session/token.h"

#include <cassert>

namespace raincore::session {

namespace {
/// Wire sanity caps (wildly above any real token, small enough that a
/// corrupted count cannot drive a giant reserve/loop).
constexpr std::uint32_t kMaxRingWire = 1'000'000;
constexpr std::uint32_t kMaxBatchesWire = 1'000'000;
constexpr std::uint32_t kMaxMsgsPerBatchWire = 10'000'000;
}  // namespace

bool AttachedBatch::well_formed() const {
  if (count == 0) return false;
  const std::uint8_t* base = payload.data();
  const std::size_t n = payload.size();
  std::size_t pos = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (n - pos < 4) return false;
    const std::uint32_t len = static_cast<std::uint32_t>(base[pos]) |
                              static_cast<std::uint32_t>(base[pos + 1]) << 8 |
                              static_cast<std::uint32_t>(base[pos + 2]) << 16 |
                              static_cast<std::uint32_t>(base[pos + 3]) << 24;
    pos += 4;
    if (n - pos < len) return false;
    pos += len;
  }
  return pos == n;
}

AttachedBatch AttachedBatch::single(const AttachedMessage& m) {
  BatchBuilder b(m.origin, m.incarnation, m.seq, m.safe);
  b.add(m.payload);
  AttachedBatch out = b.finish(m.ring_at_attach);
  out.hops = m.hops;
  return out;
}

void BatchBuilder::add(const Slice& body) {
  w_.bytes(body);
  // Gather accounting: this is the payload's one copy on the send path.
  wire_stats().copies.inc();
  wire_stats().bytes_copied.inc(body.size());
  body_bytes_ += body.size();
  ++count_;
}

AttachedBatch BatchBuilder::finish(std::uint16_t ring_at_attach) {
  assert(count_ > 0 && "empty batches are not representable on the wire");
  AttachedBatch b;
  b.origin = origin_;
  b.incarnation = incarnation_;
  b.base_seq = base_seq_;
  b.count = count_;
  b.safe = safe_;
  b.hops = 0;
  b.ring_at_attach = ring_at_attach;
  b.payload = Slice::take(w_.take());
  return b;
}

NodeId Token::successor_of(NodeId n) const {
  assert(!ring.empty());
  auto it = std::find(ring.begin(), ring.end(), n);
  if (it == ring.end()) return ring.front();
  ++it;
  return it == ring.end() ? ring.front() : *it;
}

bool Token::remove(NodeId n) {
  auto it = std::find(ring.begin(), ring.end(), n);
  if (it == ring.end()) return false;
  ring.erase(it);
  return true;
}

void Token::insert_after(NodeId after, NodeId joiner) {
  auto it = std::find(ring.begin(), ring.end(), after);
  if (it == ring.end()) {
    ring.push_back(joiner);
  } else {
    ring.insert(it + 1, joiner);
  }
}

void Token::serialize(ByteWriter& w) const {
  w.u64(lineage);
  w.u64(seq);
  w.u64(view_id);
  w.u8(tbm ? 1 : 0);
  w.u32(merge_target);
  w.u32(static_cast<std::uint32_t>(ring.size()));
  for (NodeId n : ring) w.u32(n);
  w.u32(static_cast<std::uint32_t>(batches.size()));
  for (const AttachedBatch& b : batches) {
    w.u32(b.origin);
    w.u32(b.incarnation);
    w.u64(b.base_seq);
    w.u32(b.count);
    w.u8(b.safe ? 1 : 0);
    w.u16(b.hops);
    w.u16(b.ring_at_attach);
    w.bytes(b.payload);
    // Gather: ONE contiguous memcpy per batch, however many messages ride
    // in it — this is the per-hop cost batching amortises.
    wire_stats().copies.inc();
    wire_stats().bytes_copied.inc(b.payload.size());
  }
}

bool Token::deserialize(ByteReader& r, Token& out) {
  out.lineage = r.u64();
  out.seq = r.u64();
  out.view_id = r.u64();
  out.tbm = r.u8() != 0;
  out.merge_target = r.u32();
  std::uint32_t nring = r.u32();
  if (!r.ok() || nring > kMaxRingWire) return false;
  out.ring.clear();
  out.ring.reserve(nring);
  for (std::uint32_t i = 0; i < nring; ++i) out.ring.push_back(r.u32());
  std::uint32_t nbatches = r.u32();
  if (!r.ok() || nbatches > kMaxBatchesWire) return false;
  out.batches.clear();
  out.batches.reserve(nbatches);
  for (std::uint32_t i = 0; i < nbatches; ++i) {
    AttachedBatch b;
    b.origin = r.u32();
    b.incarnation = r.u32();
    b.base_seq = r.u64();
    b.count = r.u32();
    if (!r.ok() || b.count == 0 || b.count > kMaxMsgsPerBatchWire) return false;
    b.safe = r.u8() != 0;
    b.hops = r.u16();
    b.ring_at_attach = r.u16();
    // Zero-copy scatter: the batch payload view aliases the reader's
    // backing slice (the inbound datagram); inner bodies alias it in turn.
    b.payload = r.slice();
    if (!r.ok() || !b.well_formed()) return false;
    out.batches.push_back(std::move(b));
  }
  return r.ok();
}

Slice Token::encode() const {
  FrameBuilder w(96 + batches.size() * 33 + msg_bytes());
  serialize(w);
  return w.finish();
}

}  // namespace raincore::session
