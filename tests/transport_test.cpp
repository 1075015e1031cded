// Raincore Transport Service: atomic ack'd delivery, retransmission,
// duplicate suppression, failure-on-delivery, multi-address strategies,
// adaptive failure detection (RTT estimation, backoff with jitter,
// link-health steering, per-peer state pruning).
#include <gtest/gtest.h>

#include <limits>

#include "net/sim_network.h"
#include "transport/link_health.h"
#include "transport/rtt_estimator.h"
#include "transport/transport.h"

namespace raincore {
namespace {

using net::SimNetConfig;
using net::SimNetwork;
using transport::ReliableTransport;
using transport::SendStrategy;
using transport::TransportConfig;

struct Pair {
  explicit Pair(SimNetwork& net, TransportConfig cfg = {}, std::uint8_t ifaces = 1)
      : t1(net.add_node(1, ifaces), cfg), t2(net.add_node(2, ifaces), cfg) {
    t2.set_message_handler([this](NodeId src, Slice p) {
      received.emplace_back(src, std::move(p));
    });
  }
  ReliableTransport t1, t2;
  std::vector<std::pair<NodeId, Slice>> received;
};

TEST(TransportTest, DeliversAndAcks) {
  SimNetwork net;
  Pair p(net);
  bool delivered = false;
  p.t1.send(2, Bytes{1, 2, 3},
            [&](transport::TransferId, NodeId peer) {
              delivered = true;
              EXPECT_EQ(peer, 2u);
            });
  net.loop().run_for(millis(10));
  EXPECT_TRUE(delivered);
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, (Bytes{1, 2, 3}));
  EXPECT_EQ(p.t1.in_flight(), 0u);
}

TEST(TransportTest, RetransmitsThroughLoss) {
  SimNetConfig cfg;
  cfg.default_drop = 0.4;
  cfg.seed = 17;
  SimNetwork net(cfg);
  TransportConfig tcfg;
  tcfg.attempts_per_address = 25;
  Pair p(net, tcfg);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    p.t1.send(2, Bytes{static_cast<std::uint8_t>(i)},
              [&](transport::TransferId, NodeId) { ++delivered; });
  }
  net.loop().run_for(seconds(5));
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(p.received.size(), 20u);  // exactly once despite retransmits
}

TEST(TransportTest, DuplicateDataDeliveredOnce) {
  // Force duplicates: drop the first ack so the sender retransmits.
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(20);
  Pair p(net, tcfg);
  net.set_link_up(2, 1, false, /*bidirectional=*/false);  // acks lost
  p.t1.send(2, Bytes{7});
  net.loop().run_for(millis(50));  // at least two attempts arrive
  net.set_link_up(2, 1, true, false);
  net.loop().run_for(millis(100));
  EXPECT_EQ(p.received.size(), 1u) << "duplicate delivery";
}

TEST(TransportTest, FailureOnDeliveryAfterExhaustion) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 3;
  Pair p(net, tcfg);
  net.set_node_up(2, false);
  bool failed = false;
  Time start = net.now();
  Time failed_at = 0;
  p.t1.send(2, Bytes{1}, {}, [&](transport::TransferId, NodeId peer) {
    failed = true;
    failed_at = net.now();
    EXPECT_EQ(peer, 2u);
  });
  net.loop().run_for(seconds(1));
  EXPECT_TRUE(failed);
  // 3 attempts x 10 ms RTO.
  EXPECT_NEAR(to_millis(failed_at - start), 30.0, 5.0);
}

TEST(TransportTest, FailureBoundMatchesConfig) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 3;
  Pair p(net, tcfg, 2);
  EXPECT_EQ(p.t1.failure_detection_bound(2), millis(60));  // 2 addrs x 3 x 10
  TransportConfig par = tcfg;
  par.strategy = SendStrategy::kParallel;
  SimNetwork net2;
  Pair q(net2, par, 2);
  EXPECT_EQ(q.t1.failure_detection_bound(2), millis(30));
}

TEST(TransportTest, SequentialStrategyFailsOverToSecondAddress) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 2;
  Pair p(net, tcfg, 2);
  // Primary interface pair dead; secondary alive.
  net.set_link_up(net::Address{1, 0}, net::Address{2, 0}, false);
  bool delivered = false;
  Time start = net.now();
  Time at = 0;
  p.t1.send(2, Bytes{9}, [&](transport::TransferId, NodeId) {
    delivered = true;
    at = net.now();
  });
  net.loop().run_for(seconds(1));
  EXPECT_TRUE(delivered);
  // Two failed attempts on address 0 (2 x 10 ms), then address 1 succeeds.
  EXPECT_GE(at - start, millis(20));
  EXPECT_LT(at - start, millis(40));
}

TEST(TransportTest, ParallelStrategyDeliversImmediatelyOverSurvivingLink) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.strategy = SendStrategy::kParallel;
  Pair p(net, tcfg, 2);
  net.set_link_up(net::Address{1, 0}, net::Address{2, 0}, false);
  bool delivered = false;
  Time start = net.now();
  Time at = 0;
  p.t1.send(2, Bytes{9}, [&](transport::TransferId, NodeId) {
    delivered = true;
    at = net.now();
  });
  net.loop().run_for(seconds(1));
  EXPECT_TRUE(delivered);
  EXPECT_LT(at - start, millis(5));  // no RTO wait at all
}

TEST(TransportTest, PeerInterfacesFollowTheNodesOwn) {
  // Two 2-interface nodes, the default config but for kParallel, and no
  // per-peer declaration: every attempt round goes out on both links.
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.strategy = SendStrategy::kParallel;
  ReliableTransport t1(net.add_node(1, 2), tcfg);
  ReliableTransport t2(net.add_node(2, 2), tcfg);
  t2.set_enabled(false);  // never acks
  bool failed = false;
  t1.send(2, Bytes{1}, {},
          [&](transport::TransferId, NodeId) { failed = true; });
  net.loop().run_for(seconds(1));
  ASSERT_TRUE(failed);
  const auto rounds = static_cast<std::uint64_t>(tcfg.attempts_per_address);
  EXPECT_EQ(t1.metrics().counter("transport.frames_out").value(), 2 * rounds);
}

TEST(TransportTest, LinkHealthGaugeReadsTheWorstScoredLink) {
  // Built as the clusters build their transports: no per-peer call. A
  // peer that stops acking drags the gauge below 1.0.
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.adaptive = true;
  tcfg.rto = millis(10);
  ReliableTransport t1(net.add_node(1), tcfg);
  ReliableTransport t2(net.add_node(2), tcfg);
  auto gauge = [&] {
    return t1.metrics().snapshot().gauges.at("transport.link_health");
  };
  EXPECT_EQ(gauge(), 1.0);  // nothing scored yet
  bool delivered = false;
  t1.send(2, Bytes{1}, [&](transport::TransferId, NodeId) { delivered = true; });
  net.loop().run_for(millis(100));
  ASSERT_TRUE(delivered);
  EXPECT_EQ(gauge(), 1.0);  // one clean ack

  t2.set_enabled(false);  // the peer stops acking
  bool failed = false;
  t1.send(2, Bytes{2}, {},
          [&](transport::TransferId, NodeId) { failed = true; });
  net.loop().run_for(seconds(5));
  ASSERT_TRUE(failed);
  EXPECT_LT(gauge(), 1.0);
  EXPECT_EQ(gauge(), t1.link_health().score(2, 0));
  EXPECT_EQ(gauge(), t1.link_health().worst());

  t1.forget_peer(2);  // its links go with it
  EXPECT_EQ(gauge(), 1.0);
}

TEST(TransportTest, UnreliableSendBypassesAcks) {
  SimNetwork net;
  Pair p(net);
  net.reset_stats();
  p.t1.send_unreliable(2, Bytes{5});
  net.loop().run_for(millis(10));
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, Bytes{5});
  // Exactly one packet on the wire: no ack, no retransmission.
  EXPECT_EQ(net.totals().pkts_sent.value(), 1u);
}

TEST(TransportTest, DisabledTransportIsDeadToTheWorld) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 2;
  Pair p(net, tcfg);
  p.t2.set_enabled(false);
  bool failed = false;
  p.t1.send(2, Bytes{1}, {}, [&](transport::TransferId, NodeId) { failed = true; });
  net.loop().run_for(seconds(1));
  EXPECT_TRUE(failed) << "disabled peer must not acknowledge";
  EXPECT_TRUE(p.received.empty());
}

TEST(TransportTest, ManyConcurrentTransfersAllComplete) {
  SimNetConfig cfg;
  cfg.default_drop = 0.2;
  cfg.seed = 23;
  SimNetwork net(cfg);
  TransportConfig tcfg;
  tcfg.attempts_per_address = 20;
  Pair p(net, tcfg);
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    p.t1.send(2, Bytes{static_cast<std::uint8_t>(i)},
              [&](transport::TransferId, NodeId) { ++done; });
  }
  net.loop().run_for(seconds(10));
  EXPECT_EQ(done, 200);
  EXPECT_EQ(p.received.size(), 200u);
}

TEST(TransportTest, LargePayloadRoundTrip) {
  SimNetwork net;
  Pair p(net);
  Bytes big(256 * 1024, 0x5a);
  p.t1.send(2, big);
  net.loop().run_for(millis(50));
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, big);
}

TEST(TransportTest, TaskSwitchCounterCountsArrivals) {
  SimNetwork net;
  Pair p(net);
  auto before = p.t2.task_switches().value();
  for (int i = 0; i < 10; ++i) p.t1.send(2, Bytes{1});
  net.loop().run_for(millis(50));
  // Receiver wakes once per DATA arrival.
  EXPECT_EQ(p.t2.task_switches().value() - before, 10u);
}

TEST(TransportTest, RecvDedupStateIsBounded) {
  // Abandoned transfers leave permanent sequence gaps at the receiver; the
  // tracked out-of-order set must stay bounded by its 4096-entry cap
  // (kMaxRecvTracked in transport.cpp) instead of growing with every gap.
  // Each abandoned transfer is followed by a delivered one, so every
  // delivered seq sits above a gap of its own.
  constexpr std::size_t kCap = 4096;
  constexpr std::size_t kGaps = kCap + 4;
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(5);
  tcfg.attempts_per_address = 1;
  Pair p(net, tcfg);
  for (std::size_t i = 0; i < kGaps; ++i) {
    net.set_link_up(1, 2, false);
    p.t1.send(2, Bytes{0});  // abandoned
    net.loop().run_for(millis(10));
    net.set_link_up(1, 2, true);
    p.t1.send(2, Bytes{1});
    net.loop().run_for(millis(2));
  }
  net.loop().run_for(seconds(1));
  EXPECT_EQ(p.t1.in_flight(), 0u);
  EXPECT_EQ(p.received.size(), kGaps);  // gaps never block delivery
  EXPECT_EQ(p.t2.recv_tracked(1), kCap);
}

TEST(TransportTest, CorruptedFramesAreDroppedAndRetransmitted) {
  SimNetConfig cfg;
  cfg.seed = 11;
  SimNetwork net(cfg);
  TransportConfig tcfg;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 50;
  Pair p(net, tcfg);
  net.set_corrupt_rate(1, 2, 0.5);
  int delivered = 0;
  for (int i = 0; i < 30; ++i) {
    p.t1.send(2, Bytes{static_cast<std::uint8_t>(i)},
              [&](transport::TransferId, NodeId) { ++delivered; });
  }
  net.loop().run_for(seconds(10));
  EXPECT_EQ(delivered, 30);
  EXPECT_EQ(p.received.size(), 30u);  // exactly once, nothing corrupted through
  // Both directions saw corrupted frames die at the checksum gate.
  EXPECT_GT(p.t1.checksum_drops().value() + p.t2.checksum_drops().value(), 0u);
  EXPECT_GT(net.totals().pkts_corrupted.value(), 0u);
}

TEST(TransportTest, EveryFlippedBitOfACapturedFrameFailsTheChecksum) {
  // Node 3 is a bare endpoint: it captures node 1's DATA frame, then
  // replays it to node 2, once with each single bit flipped (header,
  // payload and trailer alike) and then intact.
  SimNetwork net;
  ReliableTransport sender(net.add_node(1));
  ReliableTransport receiver(net.add_node(2));
  net::NodeEnv& tap = net.add_node(3);
  Slice frame;
  tap.set_receiver([&](net::Datagram&& d) {
    if (frame.empty()) frame = std::move(d.payload);
  });
  std::vector<Slice> received;
  receiver.set_message_handler(
      [&](NodeId, Slice p) { received.push_back(std::move(p)); });

  Bytes payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  sender.send(3, payload);
  net.loop().run_for(millis(1));
  const Bytes clean = frame.to_bytes();
  ASSERT_EQ(clean.size(), 15 + payload.size() + 4);  // header, body, CRC32C

  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    Bytes flipped = clean;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    tap.send(net::Address{2, 0}, std::move(flipped));
  }
  net.loop().run_for(millis(10));
  EXPECT_EQ(receiver.checksum_drops().value(), clean.size() * 8);
  EXPECT_TRUE(received.empty());

  tap.send(net::Address{2, 0}, clean);
  tap.send(net::Address{2, 0}, clean);  // a duplicate is acked, not delivered
  net.loop().run_for(millis(10));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], payload);
  EXPECT_EQ(receiver.checksum_drops().value(), clean.size() * 8);
}

TEST(TransportTest, ParallelStrategyFailsOnlyWhenEveryInterfaceIsCut) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.strategy = SendStrategy::kParallel;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 2;
  Pair p(net, tcfg, 2);
  // Sever every address pair between the two nodes.
  for (std::uint8_t i = 0; i < 2; ++i) {
    for (std::uint8_t j = 0; j < 2; ++j) {
      net.set_link_up(net::Address{1, i}, net::Address{2, j}, false);
    }
  }
  bool failed = false;
  p.t1.send(2, Bytes{1}, {}, [&](transport::TransferId, NodeId) { failed = true; });
  net.loop().run_for(seconds(1));
  EXPECT_TRUE(failed) << "no surviving interface: must fail-on-delivery";
  EXPECT_TRUE(p.received.empty());

  // One surviving interface pair is enough again.
  net.set_link_up(net::Address{1, 1}, net::Address{2, 1}, true);
  bool delivered = false;
  p.t1.send(2, Bytes{2}, [&](transport::TransferId, NodeId) { delivered = true; });
  net.loop().run_for(seconds(1));
  EXPECT_TRUE(delivered);
  ASSERT_EQ(p.received.size(), 1u);
  EXPECT_EQ(p.received[0].second, Bytes{2});
}

TEST(TransportTest, ParallelStrategyDoesNotDuplicateDeliveries) {
  // Parallel sends race one copy per interface; the receiver's duplicate
  // suppression must collapse them to exactly one delivery each.
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.strategy = SendStrategy::kParallel;
  Pair p(net, tcfg, 2);
  for (int i = 0; i < 20; ++i) {
    p.t1.send(2, Bytes{static_cast<std::uint8_t>(i)});
  }
  net.loop().run_for(seconds(1));
  EXPECT_EQ(p.received.size(), 20u);
}

TEST(RttEstimatorTest, JacobsonKarelsMathAndClamping) {
  transport::RtoBounds b;  // fallback 50 ms, clamp [5 ms, 400 ms]
  transport::RttEstimator e;
  EXPECT_FALSE(e.has_sample());
  EXPECT_EQ(e.rto(b), millis(50));  // fallback until the first sample

  e.sample(millis(10));  // SRTT = R, RTTVAR = R/2
  EXPECT_EQ(e.srtt(), millis(10));
  EXPECT_EQ(e.rttvar(), millis(5));
  EXPECT_EQ(e.rto(b), millis(30));  // 10 + 4*5

  e.sample(millis(20));  // RTTVAR = 3/4*5 + 1/4*|10-20|, SRTT = 7/8*10 + 1/8*20
  EXPECT_EQ(e.srtt(), micros(11250));
  EXPECT_EQ(e.rttvar(), micros(6250));
  EXPECT_EQ(e.rto(b), micros(36250));

  transport::RttEstimator fast;  // a very fast link clamps up to min_rto
  fast.sample(micros(100));
  EXPECT_EQ(fast.rto(b), millis(5));

  transport::RttEstimator slow;  // a very slow link clamps down to max_rto
  slow.sample(millis(500));
  EXPECT_EQ(slow.rto(b), millis(400));
}

TEST(LinkHealthTest, EwmaScoresRankingAndTies) {
  transport::LinkHealth h;
  EXPECT_DOUBLE_EQ(h.score(2, 0), 1.0);  // unknown links are optimistic
  // Ties keep ascending index order.
  EXPECT_EQ(h.ranked(2, 2), (std::vector<std::uint8_t>{0, 1}));
  h.on_timeout(2, 0);
  EXPECT_DOUBLE_EQ(h.score(2, 0), 0.875);
  EXPECT_EQ(h.ranked(2, 2), (std::vector<std::uint8_t>{1, 0}));
  for (int i = 0; i < 30; ++i) h.on_success(2, 0);
  EXPECT_GT(h.score(2, 0), 0.95);  // recovers after sustained successes
  h.forget(2);
  EXPECT_EQ(h.tracked(), 0u);
}

TEST(TransportTest, AdaptiveScheduleIsSeedReplayable) {
  // Two identical seeded runs with the adaptive detector (dynamic RTO +
  // backoff + jitter) must produce identical delivery times and identical
  // metric snapshots: all randomness comes from seeded streams.
  auto run = [] {
    SimNetConfig ncfg;
    ncfg.seed = 77;
    ncfg.default_drop = 0.3;
    SimNetwork net(ncfg);
    TransportConfig tcfg;
    tcfg.adaptive = true;
    tcfg.attempts_per_address = 10;
    Pair p(net, tcfg);
    std::vector<Time> delivered_at;
    for (int i = 0; i < 10; ++i) {
      p.t1.send(2, Bytes{static_cast<std::uint8_t>(i)},
                [&](transport::TransferId, NodeId) {
                  delivered_at.push_back(net.now());
                });
    }
    net.loop().run_for(seconds(2));
    return std::make_pair(delivered_at, p.t1.metrics().snapshot());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(TransportTest, AdaptiveFailureBoundIsTrueUpperBound) {
  // Prime the estimator with clean samples, kill the peer, then check the
  // live bound actually covers the maximally backed-off attempt schedule.
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.adaptive = true;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 4;
  Pair p(net, tcfg, 2);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    p.t1.send(2, Bytes{1}, [&](transport::TransferId, NodeId) { ++done; });
  }
  net.loop().run_for(millis(200));
  ASSERT_EQ(done, 5);
  EXPECT_GT(p.t1.metrics().snapshot().counters.at("transport.rtt_samples"), 0u);

  net.set_node_up(2, false);
  const Time bound = p.t1.failure_detection_bound(2);
  bool failed = false;
  const Time start = net.now();
  Time failed_at = 0;
  p.t1.send(2, Bytes{2}, {}, [&](transport::TransferId, NodeId) {
    failed = true;
    failed_at = net.now();
  });
  net.loop().run_for(seconds(30));
  ASSERT_TRUE(failed);
  EXPECT_LE(failed_at - start, bound);
  // The estimator-driven schedule starts near the measured RTT, so the
  // failure fires far sooner than the worst-case clamp would suggest.
  EXPECT_LT(failed_at - start, seconds(5));
}

TEST(TransportTest, ForgetPeerPrunesStateAndResyncsEpoch) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.adaptive = true;
  Pair p(net, tcfg);
  for (int i = 0; i < 5; ++i) p.t1.send(2, Bytes{static_cast<std::uint8_t>(i)});
  net.loop().run_for(millis(100));
  ASSERT_EQ(p.received.size(), 5u);
  EXPECT_EQ(p.t1.send_peers_tracked(), 1u);
  EXPECT_GT(p.t1.rtt().tracked(), 0u);
  EXPECT_LT(p.t1.since_heard(2), millis(100));

  p.t1.forget_peer(2);
  EXPECT_EQ(p.t1.send_peers_tracked(), 0u);
  EXPECT_EQ(p.t1.rtt().tracked(), 0u);
  EXPECT_EQ(p.t1.link_health().tracked(), 0u);
  EXPECT_EQ(p.t1.since_heard(2), std::numeric_limits<Time>::max());

  // Re-contact restarts the sequence space under a fresh epoch: the
  // receiver's old dedup window must not swallow the restarted stream.
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    p.t1.send(2, Bytes{static_cast<std::uint8_t>(10 + i)},
              [&](transport::TransferId, NodeId) { ++delivered; });
  }
  net.loop().run_for(millis(100));
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(p.received.size(), 10u);  // exactly once across the forget
}

TEST(TransportTest, ForgetPeerSilentlyAbandonsInFlight) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 3;
  Pair p(net, tcfg);
  net.set_node_up(2, false);
  bool notified = false;
  p.t1.send(2, Bytes{1},
            [&](transport::TransferId, NodeId) { notified = true; },
            [&](transport::TransferId, NodeId) { notified = true; });
  net.loop().run_for(millis(5));
  p.t1.forget_peer(2);
  EXPECT_EQ(p.t1.in_flight(), 0u);
  net.loop().run_for(seconds(1));
  EXPECT_FALSE(notified) << "forgetting a peer is not a transfer failure";
}

TEST(TransportTest, SequentialStartsAtHealthiestAddressWhenAdaptive) {
  SimNetwork net;
  TransportConfig tcfg;
  tcfg.adaptive = true;
  tcfg.rto = millis(10);
  tcfg.attempts_per_address = 2;
  Pair p(net, tcfg, 2);
  net.set_link_up(net::Address{1, 0}, net::Address{2, 0}, false);
  // The first transfer walks addresses in index order (no health data yet),
  // burning the attempt budget on the dead primary before failing over —
  // and feeding the health table while doing so.
  bool d1 = false;
  p.t1.send(2, Bytes{1}, [&](transport::TransferId, NodeId) { d1 = true; });
  net.loop().run_for(seconds(1));
  ASSERT_TRUE(d1);
  EXPECT_LT(p.t1.link_health().score(2, 0), 1.0);
  EXPECT_EQ(p.t1.link_health().ranked(2, 2),
            (std::vector<std::uint8_t>{1, 0}));
  // The next transfer starts at the healthy address: delivery is immediate,
  // no RTO spent probing the dead primary.
  bool d2 = false;
  const Time start = net.now();
  Time at = 0;
  p.t1.send(2, Bytes{2}, [&](transport::TransferId, NodeId) {
    d2 = true;
    at = net.now();
  });
  net.loop().run_for(seconds(1));
  ASSERT_TRUE(d2);
  EXPECT_LT(at - start, millis(5));
}

TEST(TransportTest, MalformedDatagramIsIgnored) {
  SimNetwork net;
  Pair p(net);
  auto& env1 = p.t1.env();
  env1.send(net::Address{2, 0}, Bytes{}, 0);          // empty
  env1.send(net::Address{2, 0}, Bytes{99, 1, 2}, 0);  // unknown type
  env1.send(net::Address{2, 0}, Bytes{1, 1}, 0);      // truncated DATA
  net.loop().run_for(millis(10));
  EXPECT_TRUE(p.received.empty());
}

}  // namespace
}  // namespace raincore
