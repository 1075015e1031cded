// Production runtime assembly: PeerStatusBoard snapshot semantics, the
// raincored config file format, the endpoint's count of refused sends,
// the TransportProxy's ring sizes and hand-off timing, a live two-node
// ThreadedNode cluster over kernel UDP loopback (ephemeral ports,
// discovery merge, cross-node delivery, clean shutdown), the token hold
// anchored at arrival, worker wakes and hand-offs per token hop, and
// 4 x 4-ring formations. ctest -L runtime
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "net/udp_endpoint.h"
#include "runtime/peer_status.h"
#include "runtime/raincored_config.h"
#include "runtime/threaded_node.h"
#include "runtime/transport_proxy.h"

using namespace raincore;
using runtime::RaincoredConfig;
using runtime::ThreadedNode;
using runtime::ThreadedNodeConfig;

namespace {

bool poll_until(const std::function<bool()>& cond,
                std::chrono::seconds limit = std::chrono::seconds(30)) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!cond()) {
    if (std::chrono::steady_clock::now() - t0 > limit) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

/// Starts a 2-node, 1-ring cluster from raincored's defaults (its hold),
/// with no delivery journal; true once both nodes see the 2-member ring.
bool start_raincored_pair(std::vector<std::unique_ptr<ThreadedNode>>& nodes) {
  for (NodeId id = 1; id <= 2; ++id) {
    RaincoredConfig rc;
    rc.node = id;
    rc.shards = 1;
    rc.peers.push_back({id == 1 ? NodeId{2} : NodeId{1}, "127.0.0.1", 0});
    ThreadedNodeConfig nc = rc.to_node_config();
    nc.storage.dir.clear();
    nodes.push_back(std::make_unique<ThreadedNode>(nc));
  }
  nodes[0]->add_peer(2, 0, "127.0.0.1", nodes[1]->port(0));
  nodes[1]->add_peer(1, 0, "127.0.0.1", nodes[0]->port(0));
  for (auto& n : nodes) n->start();
  for (auto& n : nodes) n->found_all();
  return poll_until([&] {
    return nodes[0]->all_converged(2) && nodes[1]->all_converged(2);
  });
}

}  // namespace

// --- PeerStatusBoard ----------------------------------------------------------

TEST(PeerStatusBoardTest, UnheardPeerReportsMax) {
  runtime::PeerStatusBoard board;
  board.add_peer(2, millis(80));
  EXPECT_EQ(board.since_heard(2, seconds(5)), std::numeric_limits<Time>::max());
  EXPECT_EQ(board.failure_detection_bound(2), millis(80));
}

TEST(PeerStatusBoardTest, PublishedRowAnswersWorkerQueries) {
  runtime::PeerStatusBoard board;
  board.add_peer(2, millis(80));
  board.publish(2, seconds(1), millis(120));
  EXPECT_EQ(board.since_heard(2, seconds(3)), seconds(2));
  // A worker's clock sample can lag the publish; never negative.
  EXPECT_EQ(board.since_heard(2, millis(500)), 0);
  EXPECT_EQ(board.failure_detection_bound(2), millis(120));
}

TEST(PeerStatusBoardTest, UnknownPeerIsConservative) {
  runtime::PeerStatusBoard board;
  // No row: treat as never-heard with a zero bound. publish() to an
  // unknown row is a no-op, not a map mutation (rows are fixed pre-start).
  board.publish(9, seconds(1), millis(50));
  EXPECT_EQ(board.since_heard(9, seconds(2)), std::numeric_limits<Time>::max());
  EXPECT_EQ(board.failure_detection_bound(9), 0);
}

// --- RaincoredConfig ----------------------------------------------------------

class RaincoredConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("raincore-cfg-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& body) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << body;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(RaincoredConfigTest, LoadsFullDocument) {
  const std::string path = write_file("n1.json", R"({
    "node": 1, "shards": 2, "bind_ip": "127.0.0.1", "port": 48211,
    "storage_dir": "/tmp/rc/n1", "token_hold_ms": 3,
    "max_batch_msgs": 64, "max_batch_bytes": 4096,
    "status_interval_ms": 50,
    "peers": [ {"node": 2, "ip": "127.0.0.1", "port": 48212} ]
  })");
  RaincoredConfig cfg;
  std::string err;
  ASSERT_TRUE(RaincoredConfig::load(path, cfg, err)) << err;
  EXPECT_EQ(cfg.node, 1u);
  EXPECT_EQ(cfg.shards, 2u);
  EXPECT_EQ(cfg.port, 48211);
  EXPECT_EQ(cfg.storage_dir, "/tmp/rc/n1");
  EXPECT_EQ(cfg.token_hold, millis(3));
  EXPECT_EQ(cfg.max_batch_msgs, 64u);
  EXPECT_EQ(cfg.max_batch_bytes, 4096u);
  EXPECT_EQ(cfg.status_interval, millis(50));
  ASSERT_EQ(cfg.peers.size(), 1u);
  EXPECT_EQ(cfg.peers[0].node, 2u);
  EXPECT_EQ(cfg.peers[0].port, 48212);

  // The runtime config it expands to: K rings, discovery across self+peer.
  ThreadedNodeConfig nc = cfg.to_node_config();
  EXPECT_EQ(nc.node, 1u);
  EXPECT_EQ(nc.shards, 2u);
  EXPECT_EQ(nc.ring.eligible, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(nc.peers, (std::vector<NodeId>{2}));
  ASSERT_EQ(nc.ports.size(), 1u);
  EXPECT_EQ(nc.ports[0], 48211);

  // The *_ms keys take decimals down to whole microseconds.
  const std::vector<std::tuple<std::string, Time, Time>> decimal = {
      {R"("token_hold_ms": 0.5)", micros(500), millis(200)},
      {R"("token_hold_ms": 0.25, "status_interval_ms": 1.5)", micros(250),
       micros(1500)},
      {R"("token_hold_ms": 0.001, "status_interval_ms": 0)", micros(1), 0},
      {R"("token_hold_ms": 2.0, "status_interval_ms": 1e2)", millis(2),
       millis(100)},
  };
  for (const auto& [keys, hold, status] : decimal) {
    RaincoredConfig d;
    ASSERT_TRUE(RaincoredConfig::load(
        write_file("dec.json", R"({"node": 1, "port": 48211, )" + keys +
                                   R"(, "peers": []})"),
        d, err))
        << keys << ": " << err;
    EXPECT_EQ(d.token_hold, hold) << keys;
    EXPECT_EQ(d.status_interval, status) << keys;
  }
}

TEST_F(RaincoredConfigTest, DumpRoundTrips) {
  // The defaults, then a hold and a status cadence off whole milliseconds:
  // both must come back exact, never truncated to the ms below.
  RaincoredConfig sub_ms;
  sub_ms.token_hold = micros(1500);
  sub_ms.status_interval = micros(250);
  for (RaincoredConfig cfg : {RaincoredConfig{}, sub_ms}) {
    cfg.node = 7;
    cfg.shards = 3;
    cfg.port = 50123;
    cfg.storage_dir = "/tmp/rc/n7";
    cfg.peers.push_back({8, "127.0.0.1", 50124});
    cfg.peers.push_back({9, "127.0.0.1", 50125});
    const std::string path = write_file("n7.json", cfg.dump());
    RaincoredConfig back;
    back.token_hold = back.status_interval = 0;
    std::string err;
    ASSERT_TRUE(RaincoredConfig::load(path, back, err)) << err;
    EXPECT_EQ(back.node, cfg.node);
    EXPECT_EQ(back.shards, cfg.shards);
    EXPECT_EQ(back.port, cfg.port);
    EXPECT_EQ(back.storage_dir, cfg.storage_dir);
    EXPECT_EQ(back.token_hold, cfg.token_hold);
    EXPECT_EQ(back.status_interval, cfg.status_interval);
    ASSERT_EQ(back.peers.size(), 2u);
    EXPECT_EQ(back.peers[1].node, 9u);
    EXPECT_EQ(back.peers[1].port, 50125);
  }
  // The file holds the exact value, as written by hand.
  EXPECT_NE(RaincoredConfig{}.dump().find(R"("token_hold_ms":0.5,)"),
            std::string::npos);
  EXPECT_NE(sub_ms.dump().find(R"("status_interval_ms":0.25,)"),
            std::string::npos);
}

TEST_F(RaincoredConfigTest, RejectsMissingKeysAndMalformedJson) {
  RaincoredConfig cfg;
  std::string err;
  EXPECT_FALSE(RaincoredConfig::load(
      write_file("noport.json", R"({"node": 1, "peers": []})"), cfg, err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(RaincoredConfig::load(
      write_file("broken.json", "{\"node\": 1,"), cfg, err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(RaincoredConfig::load((dir_ / "absent.json").string(), cfg,
                                     err));
  EXPECT_FALSE(err.empty());

  // Integers must be whole numbers in range, never wrapped or truncated.
  auto doc = [](const std::string& top, const std::string& peer) {
    return "{" + top + R"(, "peers": [ {"ip": "127.0.0.1", )" + peer + "} ]}";
  };
  const std::string node = R"("node": 1)", port = R"("port": 48211)";
  const std::string peer = R"("node": 2, "port": 48212)";
  ASSERT_TRUE(RaincoredConfig::load(
      write_file("ok.json", doc(node + ", " + port, peer)), cfg, err))
      << err;
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"("node": 1.5, )" + port, peer},
      {R"("node": -1, )" + port, peer},
      {R"("node": 4294967295, )" + port, peer},
      {node + R"(, "port": 70000)", peer},
      {node + ", " + port, R"("node": 2, "port": -1)"},
      {node + ", " + port, R"("node": 2.5, "port": 48212)"},
      {node + ", " + port + R"(, "shards": 0)", peer},
      {node + ", " + port + R"(, "shards": 70000)", peer},
      {node + ", " + port + R"(, "token_hold_ms": -2)", peer},
      {node + ", " + port + R"(, "token_hold_ms": -0.5)", peer},
      {node + ", " + port + R"(, "token_hold_ms": 0.0005)", peer},
      {node + ", " + port + R"(, "token_hold_ms": 1e30)", peer},
      {node + ", " + port + R"(, "token_hold_ms": "2")", peer},
      {node + ", " + port + R"(, "status_interval_ms": 0.2501)", peer},
      {node + ", " + port + R"(, "status_interval_ms": null)", peer},
      {node + ", " + port + R"(, "max_batch_msgs": 1e30)", peer},
  };
  for (const auto& [top, p] : bad) {
    err.clear();
    EXPECT_FALSE(RaincoredConfig::load(write_file("bad.json", doc(top, p)),
                                       cfg, err))
        << top << " / " << p;
    EXPECT_FALSE(err.empty()) << top << " / " << p;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

// --- UdpEndpoint: refused sends are counted ----------------------------------

// A datagram over the 65,507-byte ceiling never leaves: sendmsg refuses it
// with EMSGSIZE, and the endpoint counts the refusal instead of dropping
// it without a trace. A 1,000-byte send to the same live peer arrives and
// counts nothing.
TEST(UdpEndpointTest, OversizeSendIsCountedAndDeliversNothing) {
  net::RealTimeLoop loop;
  net::AddressBook book;
  net::UdpEndpointConfig ca, cb;
  ca.node = 1;
  cb.node = 2;
  net::UdpEndpoint a(loop, book, ca), b(loop, book, cb);
  std::vector<std::size_t> got;
  b.set_receiver([&](net::Datagram&& d) { got.push_back(d.payload.size()); });
  const net::UdpEndpoint::SendFailures& f = a.send_failures();

  a.send(net::Address{2, 0}, Slice::take(Bytes(70000, 7)), 0);
  loop.run_for(millis(50));
  EXPECT_EQ(f.emsgsize.value(), 1u);
  EXPECT_TRUE(got.empty());

  a.send(net::Address{2, 0}, Slice::take(Bytes(1000, 7)), 0);
  for (int i = 0; i < 100 && got.empty(); ++i) loop.run_for(millis(10));
  EXPECT_EQ(got, std::vector<std::size_t>{1000});
  EXPECT_EQ(f.emsgsize.value(), 1u);
  EXPECT_EQ(f.buffer_full.value(), 0u);
  EXPECT_EQ(f.other.value(), 0u);
  EXPECT_EQ(f.unknown_peer.value(), 0u);
}

// --- TransportProxy: ring sizes and hand-off timing ---------------------------

// One proxy over a real transport whose loops never run: the test thread
// plays both the worker and the I/O thread.
class TransportProxyTest : public ::testing::Test {
 protected:
  std::uint64_t counter(const std::string& name) const {
    return reg_.snapshot().counters.at("shard0.runtime.proxy." + name);
  }
  metrics::HistStat histogram(const std::string& name) const {
    return reg_.snapshot().histograms.at("shard0.runtime.proxy." + name);
  }

  net::RealTimeLoop io_loop_, worker_loop_;
  net::AddressBook book_;
  net::UdpEndpoint endpoint_{io_loop_, book_, net::UdpEndpointConfig{}};
  transport::ReliableTransport transport_{endpoint_};
  runtime::PeerStatusBoard board_;
  metrics::Registry reg_;
  runtime::TransportProxy proxy_{io_loop_, worker_loop_, transport_, board_,
                                 0, reg_, "shard0."};
};

// The worst burst a ring's proxy carries is a starving round in a ring at
// cluster_harness's 64-node cap: about 3 x 63 commands (911s, replies,
// adverts) and as many inbound events. Pushed with no drain at all, none
// drops. Past the rings' sizes a push still counts and drops.
TEST_F(TransportProxyTest, StarvingRoundAtTheNodeCapFitsTheRings) {
  constexpr std::size_t kBurst = 3 * 63;
  for (std::size_t i = 0; i < kBurst; ++i) {
    proxy_.send_on(0, 2, Slice::take(Bytes{1, 2, 3}));
    proxy_.io_deliver(2, Slice::take(Bytes{4, 5, 6}), io_loop_.now());
  }
  EXPECT_EQ(counter("cmd_dropped"), 0u);
  EXPECT_EQ(counter("inbound_dropped"), 0u);

  for (std::size_t i = kBurst; i < runtime::TransportProxy::kCommandSlots;
       ++i) {
    proxy_.send_unreliable_on(0, 2, Slice::take(Bytes{1}));
  }
  for (std::size_t i = kBurst; i < runtime::TransportProxy::kEventSlots; ++i) {
    proxy_.io_deliver(2, Slice::take(Bytes{1}), io_loop_.now());
  }
  EXPECT_EQ(counter("cmd_dropped"), 0u);
  EXPECT_EQ(counter("inbound_dropped"), 0u);
  proxy_.send_unreliable_on(0, 2, Slice::take(Bytes{1}));
  proxy_.io_deliver(2, Slice::take(Bytes{1}), io_loop_.now());
  EXPECT_EQ(counter("cmd_dropped"), 1u);
  EXPECT_EQ(counter("inbound_dropped"), 1u);
}

// The transport's receipt time crosses the event ring unchanged, so the
// ring can count its hold from it, and the wait between receipt and the
// worker taking the frame is one inbound_wait_ns sample. A command's wait
// from the worker's push to the I/O side executing it is one cmd_wait_ns
// sample.
TEST_F(TransportProxyTest, ReceiptTimeReachesTheRingAndHandOffsAreTimed) {
  std::vector<Time> seen;
  proxy_.set_group_handler(0, [&](NodeId src, Slice, Time received) {
    EXPECT_EQ(src, 2u);
    seen.push_back(received);
  });
  const Time received = worker_loop_.now() - micros(300);
  proxy_.io_deliver(2, Slice::take(Bytes{1, 2, 3}), received);
  proxy_.worker_drain();
  EXPECT_EQ(seen, std::vector<Time>{received});
  const metrics::HistStat in = histogram("inbound_wait_ns");
  EXPECT_EQ(in.count, 1u);
  EXPECT_GE(in.min, static_cast<double>(micros(300)));
  EXPECT_EQ(histogram("cmd_wait_ns").count, 0u);

  proxy_.send_unreliable_on(0, 2, Slice::take(Bytes{1}));
  proxy_.io_drain_commands();
  const metrics::HistStat cmd = histogram("cmd_wait_ns");
  EXPECT_EQ(cmd.count, 1u);
  EXPECT_GE(cmd.min, 0.0);
  EXPECT_EQ(histogram("inbound_wait_ns").count, 1u);
}

// --- ThreadedNode: two live nodes over loopback UDP ---------------------------

TEST(ThreadedNodeTest, TwoNodeClusterDeliversAcrossKernelUdp) {
  constexpr std::size_t kShards = 2;
  ThreadedNodeConfig base;
  base.shards = kShards;
  base.ring.eligible = {1, 2};
  auto n1 = std::make_unique<ThreadedNode>([&] {
    ThreadedNodeConfig c = base;
    c.node = 1;
    return c;
  }());
  auto n2 = std::make_unique<ThreadedNode>([&] {
    ThreadedNodeConfig c = base;
    c.node = 2;
    return c;
  }());

  // Ephemeral binding: real, distinct ports discovered via getsockname.
  ASSERT_NE(n1->port(0), 0);
  ASSERT_NE(n2->port(0), 0);
  ASSERT_NE(n1->port(0), n2->port(0));
  n1->add_peer(2, 0, "127.0.0.1", n2->port(0));
  n2->add_peer(1, 0, "127.0.0.1", n1->port(0));

  std::atomic<int> got{0};
  std::atomic<NodeId> origin{0};
  n2->ring_unsafe(1).set_deliver_handler(
      [&](NodeId from, const Slice& payload, session::Ordering) {
        if (payload.size() == 5) {
          origin.store(from, std::memory_order_relaxed);
          got.fetch_add(1, std::memory_order_relaxed);
        }
      });

  n1->start();
  n2->start();
  EXPECT_TRUE(n1->running());
  n1->found_all();
  n2->found_all();

  // Discovery merges the two singletons on every shard ring.
  ASSERT_TRUE(poll_until([&] {
    return n1->all_converged(2) && n2->all_converged(2);
  })) << "rings did not converge";
  EXPECT_EQ(n1->view_size(0), 2u);
  EXPECT_EQ(n2->view_size(kShards - 1), 2u);

  // Agreed multicast crosses the kernel socket to the peer's shard-1 ring.
  n1->run_on_shard(1, [](session::SessionNode& r) {
    ByteWriter w(5);
    for (int i = 0; i < 5; ++i) w.u8(static_cast<std::uint8_t>(i));
    r.multicast(w.take());
  });
  ASSERT_TRUE(poll_until([&] { return got.load() >= 1; }))
      << "multicast never delivered on the peer";
  EXPECT_EQ(origin.load(), 1u);

  // The merged snapshot carries per-shard prefixes and runtime counters.
  metrics::Snapshot snap = n1->metrics_snapshot();
  bool saw_shard1 = false, saw_proxy = false;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("shard1.", 0) == 0) saw_shard1 = true;
    if (name.find("runtime.proxy.") != std::string::npos) saw_proxy = true;
  }
  EXPECT_TRUE(saw_shard1);
  EXPECT_TRUE(saw_proxy);
  // Every loop's wake count: the I/O loop and one per shard worker.
  EXPECT_GT(snap.counters["runtime.loop.io.wakeups"], 0u);
  EXPECT_GT(snap.counters["shard0.runtime.loop.wakeups"], 0u);
  EXPECT_GT(snap.counters["shard1.runtime.loop.wakeups"], 0u);

  n1->stop();
  n2->stop();
  EXPECT_FALSE(n1->running());
  n1->stop();  // idempotent
}

// --- ThreadedNode: the hold is anchored at token arrival ---------------------

// A visit's arrival-time work (here a deliver handler that spins 1 ms on
// the first peer message of each visit) runs inside the hold, so node 1
// still passes the token token_hold after it arrived. A hold armed only
// after that work would make every dwell read token_hold + 1 ms or more.
TEST(ThreadedNodeTest, HoldEndsTokenHoldAfterArrivalDespiteSlowDelivery) {
  constexpr Time kHold = millis(2);
  constexpr auto kSpin = std::chrono::milliseconds(1);
  std::vector<std::unique_ptr<ThreadedNode>> nodes;
  for (NodeId id = 1; id <= 2; ++id) {
    ThreadedNodeConfig c;
    c.node = id;
    c.ring.eligible = {1, 2};
    c.ring.token_hold = kHold;
    nodes.push_back(std::make_unique<ThreadedNode>(c));
  }
  nodes[0]->add_peer(2, 0, "127.0.0.1", nodes[1]->port(0));
  nodes[1]->add_peer(1, 0, "127.0.0.1", nodes[0]->port(0));

  // Runs on node 1's worker, the ring's owner thread. The token's seq at
  // arrival names the visit.
  session::SessionNode& ring = nodes[0]->ring_unsafe(0);
  std::optional<TokenSeq> spun_seq;
  std::atomic<int> spun_visits{0};
  ring.set_deliver_handler([&](NodeId origin, const Slice&, session::Ordering) {
    if (origin == 1 || spun_seq == ring.last_copy().seq) return;
    spun_seq = ring.last_copy().seq;
    const auto until = std::chrono::steady_clock::now() + kSpin;
    while (std::chrono::steady_clock::now() < until) {
    }
    spun_visits.fetch_add(1, std::memory_order_relaxed);
  });

  for (auto& n : nodes) n->start();
  for (auto& n : nodes) n->found_all();
  ASSERT_TRUE(poll_until([&] {
    return nodes[0]->all_converged(2) && nodes[1]->all_converged(2);
  })) << "ring did not converge";

  const std::string dwell = "shard0.session.state.eating_dwell_ns";
  const metrics::Snapshot before = nodes[0]->metrics_snapshot();
  const int spun_before = spun_visits.load();
  // Node 2 multicasts every millisecond, so each of node 1's visits
  // delivers a few of its messages at arrival.
  const auto t_end = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < t_end) {
    nodes[1]->post_to_shard(0, [](session::SessionNode& r) {
      r.multicast(Bytes{1, 2, 3});
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const metrics::Snapshot window = nodes[0]->metrics_snapshot().diff(before);
  for (auto& n : nodes) n->stop();

  EXPECT_GE(spun_visits.load() - spun_before, 50) << "too few slow visits";
  const metrics::HistStat& d = window.histograms.at(dwell);
  ASSERT_GE(d.count, 50u);
  EXPECT_LT(d.p50, static_cast<double>(kHold + micros(500)))
      << "the hold started after the visit's work, not at arrival";
}

// --- ThreadedNode: worker wakes per token hop --------------------------------

// An idle ring's worker wakes when the token arrives and when its hold
// ends. A pass registers no delivered callback, so the ack that completes
// it must not wake the worker a third time; its completion waits for the
// next wake.
TEST(ThreadedNodeTest, IdleRingWakesItsWorkerTwicePerHop) {
  std::vector<std::unique_ptr<ThreadedNode>> nodes;
  ASSERT_TRUE(start_raincored_pair(nodes)) << "ring did not converge";

  std::vector<metrics::Snapshot> before;
  for (auto& n : nodes) before.push_back(n->metrics_snapshot());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::uint64_t wakes = 0, passes = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    metrics::Snapshot w = nodes[i]->metrics_snapshot().diff(before[i]);
    wakes += w.counters["shard0.runtime.loop.wakeups"];
    passes += w.counters["shard0.session.token.passed"];
  }
  for (auto& n : nodes) n->stop();

  ASSERT_GE(passes, 100u) << "the token barely moved";
  EXPECT_LE(static_cast<double>(wakes) / static_cast<double>(passes), 2.5)
      << wakes << " worker wakes for " << passes << " passes";
}

// --- ThreadedNode: each hop's two hand-offs ----------------------------------

// An idle ring's token crosses each node's proxy twice per hop: the pass
// leaves the worker as a command for the I/O thread, and the token comes
// in as an event for the worker. Both hand-off histograms therefore take
// about one sample per pass, each far shorter than the hold.
TEST(ThreadedNodeTest, BothHandOffsAreTimedOncePerPass) {
  const Time hold = RaincoredConfig{}.token_hold;
  std::vector<std::unique_ptr<ThreadedNode>> nodes;
  ASSERT_TRUE(start_raincored_pair(nodes)) << "ring did not converge";

  std::vector<metrics::Snapshot> before;
  for (auto& n : nodes) before.push_back(n->metrics_snapshot());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  metrics::Snapshot window;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    window.merge(nodes[i]->metrics_snapshot().diff(before[i]));
  }
  for (auto& n : nodes) n->stop();

  const double passes =
      static_cast<double>(window.counters["shard0.session.token.passed"]);
  ASSERT_GE(passes, 100.0) << "the token barely moved";
  for (const char* name : {"shard0.runtime.proxy.inbound_wait_ns",
                           "shard0.runtime.proxy.cmd_wait_ns"}) {
    const metrics::HistStat& h = window.histograms.at(name);
    EXPECT_NEAR(static_cast<double>(h.count) / passes, 1.0, 0.1)
        << name << ": " << h.count << " samples for " << passes << " passes";
    EXPECT_GT(h.p50, 0.0) << name;
    EXPECT_LT(h.p50, static_cast<double>(hold)) << name;
  }
  EXPECT_EQ(window.counters.at("net.udp.send_failed.emsgsize"), 0u);
}

// --- ThreadedNode: cluster formation over loopback UDP ------------------------

// raincored's default shape, 4 nodes x 4 rings, every node founding at
// once. Crossing merge invitations used to park two groups' tokens at each
// other's members until hungry_timeout and three 911 rounds ran out
// (DESIGN.md §5b #14): 8 of 20 and 10 of 60 such formations starved on two
// 4-core hosts. This counts starvations and 911 rounds; it does not bound
// wall-clock time.
TEST(ThreadedNodeTest, FourByFourFormationsNeverStarve) {
  constexpr NodeId kNodes = 4;
  constexpr int kFormations = 10;
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (int f = 0; f < kFormations; ++f) {
    std::vector<std::unique_ptr<ThreadedNode>> nodes;
    for (NodeId id = 1; id <= kNodes; ++id) {
      RaincoredConfig rc;
      rc.node = id;
      for (NodeId p = 1; p <= kNodes; ++p) {
        if (p != id) rc.peers.push_back({p, "127.0.0.1", 0});
      }
      ThreadedNodeConfig nc = rc.to_node_config();
      nc.storage.dir.clear();  // no delivery journal
      nodes.push_back(std::make_unique<ThreadedNode>(nc));
    }
    for (auto& a : nodes) {
      for (auto& b : nodes) {
        if (a->node() != b->node()) {
          a->add_peer(b->node(), 0, "127.0.0.1", b->port(0));
        }
      }
    }
    for (auto& n : nodes) n->start();
    for (auto& n : nodes) n->found_all();
    ASSERT_TRUE(poll_until([&] {
      for (auto& n : nodes) {
        if (!n->all_converged(kNodes)) return false;
      }
      return true;
    })) << "formation " << f << " did not converge";
    std::uint64_t starvations = 0;
    std::uint64_t rounds = 0;
    for (auto& n : nodes) {
      for (const auto& [name, value] : n->metrics_snapshot().counters) {
        if (ends_with(name, "session.911.starvations")) starvations += value;
        if (ends_with(name, "session.911.rounds")) rounds += value;
      }
    }
    EXPECT_EQ(starvations, 0u) << "formation " << f;
    EXPECT_EQ(rounds, 0u) << "formation " << f;
    for (auto& n : nodes) n->stop();
  }
}
