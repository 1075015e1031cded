// One Raincore cluster member in production form: an I/O thread owning the
// UDP socket and the shared reliable transport, plus one worker thread per
// shard ring (DESIGN.md §5i).
//
// Thread ownership map:
//   I/O thread      epoll loop, UdpEndpoint, ReliableTransport (all
//                   per-peer RTT/health/dedup/failure state), the
//                   PeerStatusBoard publisher, every proxy's command drain.
//   worker k        RealTimeLoop k, WorkerEnv k (timers/rng), the shard-k
//                   SessionNode and everything it calls — the entire ring
//                   protocol stays single-threaded on its worker.
//   setup thread    construction and wiring, strictly before start();
//                   control-plane entry points marshal through
//                   post_to_shard()/run_on_shard().
//
// Handoff is exclusively the per-ring TransportProxy SPSC pair (Slice refs
// move; payload bytes never copy) plus the lock-free PeerStatusBoard. No
// protocol object is ever touched by two threads.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/real_time_loop.h"
#include "net/udp_endpoint.h"
#include "runtime/transport_proxy.h"
#include "runtime/worker_env.h"
#include "session/session_node.h"
#include "storage/shard_store.h"

namespace raincore::runtime {

struct ThreadedNodeConfig {
  NodeId node = 0;
  /// K shard rings on demux groups 0..K-1, one worker thread each.
  std::size_t shards = 1;
  std::string bind_ip = "127.0.0.1";
  std::uint8_t ifaces = 1;
  /// Per-iface bind port; empty or 0 entries bind ephemeral.
  std::vector<std::uint16_t> ports;
  /// The node's one transport (I/O thread), shared by every ring; its
  /// peers are taken to have `ifaces` interfaces too.
  transport::TransportConfig transport;
  /// Ring template; an empty metrics_prefix becomes "shard<k>." per ring.
  session::SessionConfig ring;
  /// Every other cluster member (PeerStatusBoard rows, suspect fan-out).
  std::vector<NodeId> peers;
  /// Per-shard durable delivery journal: when `storage.dir` is non-empty
  /// each worker opens a ShardStore at <dir>/shard<k> and appends every
  /// agreed delivery of its ring to the WAL. drain() flushes these before
  /// the process exits; an empty dir disables the journal entirely.
  storage::StorageConfig storage;
};

class ThreadedNode {
 public:
  explicit ThreadedNode(ThreadedNodeConfig cfg);
  ThreadedNode(const ThreadedNode&) = delete;
  ThreadedNode& operator=(const ThreadedNode&) = delete;
  ~ThreadedNode();

  // --- Setup (before start) ------------------------------------------------
  /// Registers a peer's socket address (from config, or from another
  /// in-process node's discovered ephemeral port).
  void add_peer(NodeId node, std::uint8_t iface, const std::string& ip,
                std::uint16_t port);
  /// This node's actual bound port (ephemeral discovery).
  std::uint16_t port(std::uint8_t iface = 0) const {
    return endpoint_.port(iface);
  }

  // --- Lifecycle -----------------------------------------------------------
  void start();
  /// Stops rings (on their workers), all loops, and joins every thread.
  /// Idempotent.
  void stop();
  /// Graceful retirement (SIGTERM path): every ring LEAVEs its group —
  /// pending outbound messages are attached before departure, so survivors
  /// see a clean view shrink instead of failure-detecting a corpse — then
  /// the per-shard WALs are flushed and the node stops. Returns true when
  /// every ring completed its leave within `timeout`; on timeout the
  /// remaining rings crash-stop (survivors fall back to failure detection
  /// for those shards) but the WAL flush and stop still happen.
  bool drain(Time timeout = seconds(5));
  bool running() const { return running_; }

  // --- Control plane (any thread; marshalled) ------------------------------
  /// Fire-and-forget execution on shard k's worker thread.
  void post_to_shard(std::size_t k,
                     std::function<void(session::SessionNode&)> fn);
  /// Blocking execution on shard k's worker thread (requires start()ed).
  void run_on_shard(std::size_t k,
                    std::function<void(session::SessionNode&)> fn);
  /// found() every shard ring on its own worker.
  void found_all();
  /// Blocking: current member count of shard k's view.
  std::size_t view_size(std::size_t k);
  /// Blocking: every shard ring's view has exactly n members.
  bool all_converged(std::size_t n);

  // --- Introspection -------------------------------------------------------
  std::size_t shard_count() const { return workers_.size(); }
  NodeId node() const { return cfg_.node; }
  net::RealTimeLoop& io_loop() { return io_loop_; }
  /// Owner-thread access only (worker k, or any thread while stopped).
  session::SessionNode& ring_unsafe(std::size_t k) {
    return *workers_.at(k)->ring;
  }
  /// Merged snapshot: transport + every ring + runtime instruments (each
  /// ring's hand-off histograms "shard<k>.runtime.proxy.inbound_wait_ns"
  /// and "...cmd_wait_ns"), each loop's wake count
  /// ("runtime.loop.io.wakeups", "shard<k>.runtime.loop.wakeups") and the
  /// endpoint's lost sends ("net.udp.send_failed.{emsgsize,buffer_full,
  /// other}", "net.udp.send_unknown_peer"). Safe while running (instruments are
  /// thread-safe; registries mutex their maps) — values are per-instrument
  /// coherent, not a global cut.
  metrics::Snapshot metrics_snapshot() const;

 private:
  struct Worker {
    net::RealTimeLoop loop;
    WorkerEnv env;
    TransportProxy proxy;
    std::unique_ptr<session::SessionNode> ring;
    /// Durable delivery journal (nullptr when storage is disabled). Owned
    /// and touched exclusively by this worker's thread once start()ed.
    std::unique_ptr<storage::ShardStore> store;
    std::thread thread;

    Worker(ThreadedNode& owner, std::size_t k);
  };

  void publish_peer_status();

  ThreadedNodeConfig cfg_;
  net::RealTimeLoop io_loop_;
  net::AddressBook book_;
  net::UdpEndpoint endpoint_;
  transport::ReliableTransport transport_;
  PeerStatusBoard board_;
  metrics::Registry runtime_reg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread io_thread_;
  bool running_ = false;
};

}  // namespace raincore::runtime
