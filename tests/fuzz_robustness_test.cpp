// Adversarial robustness: random, truncated and corrupted datagrams aimed
// at live protocol stacks must never crash a node or wedge the group —
// networking elements sit on hostile networks.
#include <gtest/gtest.h>

#include "session/messages.h"
#include "testing/cluster.h"

namespace raincore {
namespace {

using testing::Cluster;

class FuzzRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzRobustness, RandomDatagramsDoNotCrashOrWedgeTheGroup) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  // Node 9 does not exist in the cluster; we impersonate it by injecting
  // raw datagrams from an extra endpoint.
  auto& evil = c.net().add_node(9);
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.next_below(64) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    NodeId victim = 1 + static_cast<NodeId>(rng.next_below(3));
    evil.send(net::Address{victim, 0}, std::move(junk), 0);
    if (i % 100 == 0) c.run(millis(5));
  }
  c.run(seconds(2));

  // The group must still be intact and functional.
  EXPECT_TRUE(c.converged({1, 2, 3}));
  c.send(2, "still-alive");
  c.run(seconds(1));
  for (NodeId id : {1u, 2u, 3u}) {
    ASSERT_FALSE(c.delivered(id).empty()) << "node " << id;
    EXPECT_EQ(c.delivered(id).back().payload, "still-alive");
  }
}

TEST_P(FuzzRobustness, TruncatedProtocolMessagesAreRejected) {
  Cluster c({1, 2});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(10)));

  // Build VALID transport frames whose session payloads are truncated
  // protocol messages — the hardest case for the parsers.
  auto& evil = c.net().add_node(9);
  Rng rng(GetParam() ^ 0xfu);

  session::Token t = c.node(1).last_copy();
  std::vector<Slice> valid = {
      session::encode_token_msg(t),
      session::encode_911(session::Msg911{9, 1, 99999}),
      session::encode_911_reply(session::Msg911Reply{9, 1, true, 5}),
      session::encode_bodyodor(session::MsgBodyOdor{9, 1}),
  };
  std::uint64_t wire_seq = 1;
  for (int i = 0; i < 500; ++i) {
    const Slice& base = valid[rng.next_below(valid.size())];
    std::size_t cut = rng.next_below(base.size()) + 1;
    Bytes payload(base.begin(), base.begin() + cut);
    // Wrap in a transport DATA frame (type 1, u64 seq).
    ByteWriter w(payload.size() + 9);
    w.u8(1);
    w.u64(wire_seq++);
    w.raw(payload.data(), payload.size());
    evil.send(net::Address{static_cast<NodeId>(1 + i % 2), 0}, w.take(), 0);
    if (i % 50 == 0) c.run(millis(5));
  }
  c.run(seconds(2));
  EXPECT_TRUE(c.converged({1, 2}));
  c.send(1, "ok");
  c.run(seconds(1));
  EXPECT_EQ(c.delivered(2).back().payload, "ok");
}

TEST_P(FuzzRobustness, BitFlippedTokensAreHandled) {
  Cluster c({1, 2, 3});
  c.bootstrap_via_join();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));
  auto& evil = c.net().add_node(9);
  Rng rng(GetParam() * 31);
  for (int i = 0; i < 300; ++i) {
    Bytes msg = session::encode_token_msg(c.node(1).last_copy()).to_bytes();
    // Flip a few random bits.
    for (int k = 0; k < 4; ++k) {
      msg[rng.next_below(msg.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    ByteWriter w(msg.size() + 9);
    w.u8(1);
    w.u64(1000000 + i);
    w.raw(msg.data(), msg.size());
    evil.send(net::Address{static_cast<NodeId>(1 + i % 3), 0}, w.take(), 0);
    if (i % 25 == 0) c.run(millis(10));
  }
  // Corrupted tokens may transiently disturb membership (they can parse as
  // valid-looking tokens); the group must converge back and keep working.
  c.run(seconds(5));
  EXPECT_TRUE(c.run_until_converged({1, 2, 3}, seconds(30)))
      << "group did not recover from corrupted-token injection";
  c.send(3, "recovered");
  c.run(seconds(1));
  for (NodeId id : {1u, 2u, 3u}) {
    EXPECT_EQ(c.delivered(id).back().payload, "recovered") << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRobustness,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "seed" + std::to_string(p.param);
                         });

// --- Zero-copy wire-path edges ---------------------------------------------
//
// The Slice/FrameBuilder machinery underpins every wire format; these are
// the sharp edges the refactor introduced: length prefixes that overrun the
// view, zero-length views, slack exhaustion forcing the copy fallback, and
// decoded aliases that must keep the datagram storage alive.

TEST(SliceEdge, TruncatedLengthPrefixFailsSticky) {
  FrameBuilder w(64);
  w.u32(1234);
  w.bytes(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  Slice full = w.finish();

  // Every truncation point either fails cleanly or round-trips; the reader
  // never reads past the view and the failure is sticky.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Slice partial = full.subslice(0, cut);
    ByteReader r(partial);
    (void)r.u32();
    Slice blob = r.slice();
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_TRUE(blob.empty()) << "cut at " << cut;
    EXPECT_EQ(r.u64(), 0u) << "sticky failure must zero later reads";
  }

  // A length prefix claiming more than the view holds must fail even when
  // the backing *storage* has that many bytes past the view (the tailroom):
  // aliasing reads are bounded by the view, not the allocation.
  ByteWriter lying;
  lying.u32(1000);  // claims 1000 payload bytes, none follow
  Slice lie = Slice::take(lying.take());
  ByteReader r(lie);
  EXPECT_TRUE(r.slice().empty());
  EXPECT_FALSE(r.ok());
}

TEST(SliceEdge, ZeroLengthViews) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_FALSE(empty.expand(1, 0).has_value()) << "no storage, no slack";
  EXPECT_TRUE(empty == Slice());
  EXPECT_TRUE(empty == Bytes{});

  // Zero-length blob inside a frame: aliases the base without failing.
  FrameBuilder w;
  w.bytes(Bytes{});
  w.u8(0x5a);
  Slice frame = w.finish();
  ByteReader r(frame);
  Slice blob = r.slice();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(blob.empty());
  EXPECT_EQ(r.u8(), 0x5a);
  EXPECT_TRUE(r.at_end());

  // Zero-length subslice at every position, including one past the data.
  Slice s = Slice::copy(Bytes{1, 2, 3});
  for (std::size_t pos = 0; pos <= 4; ++pos) {
    Slice sub = s.subslice(pos, 0);
    EXPECT_TRUE(sub.empty()) << "pos " << pos;
  }
  EXPECT_EQ(s.subslice(99, 7).size(), 0u) << "start past the end clamps";

  // An empty FrameBuilder body still carries its slack and frames in place.
  FrameBuilder e;
  Slice body = e.finish();
  EXPECT_EQ(body.size(), 0u);
  EXPECT_EQ(body.headroom(), kWireHeadroom);
  EXPECT_EQ(body.tailroom(), kWireTailroom);
  EXPECT_TRUE(body.expand(kWireHeadroom, kWireTailroom).has_value());
}

TEST(SliceEdge, HeadroomExhaustionForcesCopyFallback) {
  FrameBuilder w(16);
  w.u64(0xabcdef);
  Slice payload = w.finish();
  ASSERT_EQ(payload.headroom(), kWireHeadroom);

  // First expansion claims the slack...
  auto framed = payload.expand(kWireHeadroom, kWireTailroom);
  ASSERT_TRUE(framed.has_value());
  EXPECT_EQ(framed->frame.size(),
            payload.size() + kWireHeadroom + kWireTailroom);
  EXPECT_EQ(framed->frame.headroom(), 0u);
  EXPECT_EQ(framed->frame.tailroom(), 0u);
  // ...so a second framing pass around the result finds none left and the
  // caller must take the copy path (exactly the transport's slow path).
  EXPECT_FALSE(framed->frame.expand(1, 0).has_value());
  EXPECT_FALSE(framed->frame.expand(0, 1).has_value());

  // Asking for more slack than was reserved fails without touching *this.
  FrameBuilder small(4);
  small.u8(7);
  Slice tight = small.finish();
  EXPECT_FALSE(tight.expand(kWireHeadroom + 1, 0).has_value());
  EXPECT_FALSE(tight.expand(0, kWireTailroom + 1).has_value());
  EXPECT_EQ(tight.headroom(), kWireHeadroom) << "failed expand must not move";

  // Shared storage refuses in-place framing even with slack available —
  // expanding would scribble a header into a buffer someone else views.
  Slice a = FrameBuilder().finish();
  Slice b = a;  // second owner
  EXPECT_FALSE(a.expand(1, 0).has_value());
  b = Slice();
  EXPECT_TRUE(a.expand(1, 0).has_value()) << "sole owner again";

  // Buffers that never had slack (plain take) always fall back.
  Slice bare = Slice::take(Bytes{1, 2, 3});
  EXPECT_FALSE(bare.expand(1, 0).has_value());
}

TEST(SliceEdge, AliasedDecodeOutlivesDatagram) {
  // Decoded piggyback payloads alias the inbound token frame; retaining
  // them past the frame's lifetime must keep the storage alive (ASAN turns
  // a violation into a hard failure).
  session::Token t;
  t.lineage = 77;
  t.ring = {1, 2};
  session::BatchBuilder bb(/*origin=*/1, /*incarnation=*/9, /*base_seq=*/1,
                           /*safe=*/false);
  for (int i = 0; i < 3; ++i) {
    bb.add(Slice::copy(Bytes(64, static_cast<std::uint8_t>(0xa0 + i))));
  }
  t.batches.push_back(bb.finish(/*ring_at_attach=*/2));
  Slice frame = session::encode_token_msg(t);

  session::Token out;
  ASSERT_TRUE(session::decode_token_msg(frame, out));
  ASSERT_EQ(out.batches.size(), 1u);
  const session::AttachedBatch& b = out.batches[0];
  ASSERT_EQ(b.count, 3u);
  // The decoded batch payload is a view into the frame storage, not a copy,
  // and the inner bodies alias it in turn.
  EXPECT_GE(b.payload.use_count(), 2) << "expected an aliasing view";

  std::vector<Slice> bodies;
  b.for_each([&](std::uint32_t, Slice body) { bodies.push_back(body); });
  ASSERT_EQ(bodies.size(), 3u);

  frame = Slice();  // drop the only other reference to the datagram
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)],
              Bytes(64, static_cast<std::uint8_t>(0xa0 + i)))
        << "aliased payload must survive the datagram";
  }
}

TEST(SliceEdge, CowIsolatesCorruptionFromSharedFrames) {
  // The simulator's corruption fault mutates datagrams through cow(); a
  // shared frame (a retained retry buffer) must never observe the flip.
  FrameBuilder w;
  w.u64(0x1122334455667788);
  Slice original = w.finish();
  Slice wire = original;  // the copy the network "carries"

  Slice corrupted = std::move(wire).cow();
  ASSERT_TRUE(corrupted.unique());
  corrupted.mutable_data()[0] ^= 0xff;
  EXPECT_FALSE(corrupted == original) << "flip must be visible locally";
  ByteReader r(original);
  EXPECT_EQ(r.u64(), 0x1122334455667788u) << "retained frame untouched";

  // Sole owner: cow() must be free (same storage, no copy).
  Slice lone = Slice::copy(Bytes{1, 2, 3});
  const std::uint8_t* before = lone.data();
  Slice still = std::move(lone).cow();
  EXPECT_EQ(still.data(), before);
}

// --- Batch codec (session/token.h AttachedBatch wire format) -----------------

session::Token batched_token() {
  session::Token t;
  t.lineage = 0xabcdef;
  t.seq = 17;
  t.view_id = 3;
  t.ring = {1, 2, 3};
  session::BatchBuilder a(1, 11, 100, /*safe=*/false);
  a.add(Slice::copy(Bytes{1}));
  a.add(Slice::copy(Bytes{2, 2}));
  a.add(Slice::copy(Bytes{}));  // zero-length inner message is legal
  t.batches.push_back(a.finish(3));
  session::BatchBuilder b(2, 22, 7, /*safe=*/true);
  b.add(Slice::copy(Bytes(40, 0x5a)));
  t.batches.push_back(b.finish(3));
  return t;
}

/// Serializes a token frame but lets the caller lie about one batch's
/// `count` and payload blob — the knob every inner-length attack needs.
Bytes forged_batch_frame(std::uint32_t count, const Bytes& blob) {
  ByteWriter w;
  w.u8(1);  // SessionMsgType::kToken
  w.u64(1); // lineage
  w.u64(2); // seq
  w.u64(3); // view_id
  w.u8(0);  // tbm
  w.u32(kInvalidNode);
  w.u32(2);  // ring size
  w.u32(1);
  w.u32(2);
  w.u32(1);  // one batch
  w.u32(1);  // origin
  w.u32(9);  // incarnation
  w.u64(5);  // base_seq
  w.u32(count);
  w.u8(0);   // safe
  w.u16(0);  // hops
  w.u16(2);  // ring_at_attach
  w.bytes(blob);  // [u32 len][raw] — the batch payload blob
  return w.take();
}

/// Decodes and, when accepted, walks every inner message so ASAN would
/// catch any over-read the validator let through.
bool decode_and_walk(const Bytes& frame, session::Token& out) {
  if (!session::decode_token_msg(Slice::copy(frame), out)) return false;
  for (const session::AttachedBatch& b : out.batches) {
    EXPECT_TRUE(b.well_formed());
    std::uint32_t seen = 0;
    std::size_t bytes = 0;
    b.for_each([&](std::uint32_t, Slice body) {
      ++seen;
      for (std::uint8_t byte : body) bytes += byte;  // touch every byte
    });
    EXPECT_EQ(seen, b.count);
    (void)bytes;
  }
  return true;
}

TEST(BatchCodec, RoundTripPreservesBatches) {
  session::Token t = batched_token();
  session::Token out;
  ASSERT_TRUE(session::decode_token_msg(session::encode_token_msg(t), out));
  ASSERT_EQ(out.batches.size(), 2u);
  EXPECT_EQ(out.batches[0], t.batches[0]);
  EXPECT_EQ(out.batches[1], t.batches[1]);
  EXPECT_EQ(out.msg_count(), 4u);
}

TEST(BatchCodec, EveryTruncationRejectsCleanly) {
  const Bytes frame = session::encode_token_msg(batched_token()).to_bytes();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    session::Token out;
    Bytes trunc(frame.begin(), frame.begin() + cut);
    EXPECT_FALSE(decode_and_walk(trunc, out))
        << "truncation at " << cut << " must not decode";
  }
}

TEST(BatchCodec, OversizedFrameRejected) {
  // decode_token_msg demands exact consumption: trailing junk after a
  // valid token is a malformed datagram, not an extra-tolerant parse.
  Bytes frame = session::encode_token_msg(batched_token()).to_bytes();
  frame.push_back(0x00);
  session::Token out;
  EXPECT_FALSE(decode_and_walk(frame, out));
}

TEST(BatchCodec, ZeroMessageBatchRejected) {
  // count == 0 is unrepresentable on the wire by construction
  // (BatchBuilder::finish asserts) — a forged one must be rejected.
  session::Token out;
  EXPECT_FALSE(decode_and_walk(forged_batch_frame(0, Bytes{}), out));
}

TEST(BatchCodec, CountPayloadMismatchRejected) {
  // Inner blob tiles exactly one message ([len=1][0xaa]) but the header
  // claims two — and vice versa (blob holds two, header claims one).
  Bytes one = {1, 0, 0, 0, 0xaa};
  Bytes two = {1, 0, 0, 0, 0xaa, 1, 0, 0, 0, 0xbb};
  session::Token out;
  EXPECT_FALSE(decode_and_walk(forged_batch_frame(2, one), out));
  EXPECT_FALSE(decode_and_walk(forged_batch_frame(1, two), out));
  EXPECT_TRUE(decode_and_walk(forged_batch_frame(1, one), out));
  EXPECT_TRUE(decode_and_walk(forged_batch_frame(2, two), out));
}

TEST(BatchCodec, CorruptedInnerLengthPrefixRejectedOrBounded) {
  // An inner length prefix pointing past the blob must never over-read:
  // well_formed()'s exact-tiling walk rejects it at decode time.
  Bytes blob = {3, 0, 0, 0, 1, 2, 3, 2, 0, 0, 0, 9, 9};  // [3]{1,2,3}[2]{9,9}
  session::Token ok_out;
  ASSERT_TRUE(decode_and_walk(forged_batch_frame(2, blob), ok_out));
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (std::uint8_t v : {std::uint8_t{0xff}, std::uint8_t{0x00}}) {
      Bytes mut = blob;
      if (mut[pos] == v) continue;
      mut[pos] = v;
      session::Token out;
      // Most corruptions break the tiling and must reject; the few that
      // still tile exactly (e.g. flipping payload bytes) must decode to
      // well-formed batches — decode_and_walk asserts the walk stays in
      // bounds either way (ASAN enforces).
      decode_and_walk(forged_batch_frame(2, mut), out);
    }
  }
}

TEST(BatchCodec, HugeCountRejectedWithoutGiantReserve) {
  session::Token out;
  EXPECT_FALSE(
      decode_and_walk(forged_batch_frame(0xffffffffu, Bytes{0, 0, 0, 0}), out));
}

TEST(BatchCodec, DuplicatedBatchFrameDecodes) {
  // A token that carries the same batch twice (regeneration can resurrect
  // an already-forwarded copy) is wire-valid; exactly-once is the delivery
  // watermark's job, not the codec's.
  session::Token t = batched_token();
  t.batches.push_back(t.batches[0]);
  session::Token out;
  ASSERT_TRUE(session::decode_token_msg(session::encode_token_msg(t), out));
  EXPECT_EQ(out.batches.size(), 3u);
  EXPECT_EQ(out.batches[0], out.batches[2]);
}

class BatchCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchCodecFuzz, RandomMutationsNeverOverReadAndAcceptedFramesRoundTrip) {
  Rng rng(GetParam() * 0x9e3779b9u);
  const Bytes base = session::encode_token_msg(batched_token()).to_bytes();
  for (int i = 0; i < 4000; ++i) {
    Bytes mut = base;
    switch (rng.next_below(3)) {
      case 0:  // bit flips
        for (int k = 0; k < 3; ++k) {
          mut[rng.next_below(mut.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:  // truncate
        mut.resize(rng.next_below(mut.size()));
        break;
      default:  // splice a random window with junk
        for (std::size_t k = rng.next_below(mut.size()),
                         e = std::min(mut.size(), k + rng.next_below(16));
             k < e; ++k) {
          mut[k] = static_cast<std::uint8_t>(rng.next_u64());
        }
        break;
    }
    session::Token out;
    if (decode_and_walk(mut, out)) {
      // Accepted mutants must re-encode to a decodable, equal token.
      session::Token again;
      ASSERT_TRUE(
          session::decode_token_msg(session::encode_token_msg(out), again));
      EXPECT_EQ(again.batches.size(), out.batches.size());
      for (std::size_t b = 0; b < out.batches.size(); ++b) {
        EXPECT_EQ(again.batches[b], out.batches[b]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchCodecFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace raincore
