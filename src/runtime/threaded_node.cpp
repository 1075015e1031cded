#include "runtime/threaded_node.h"

#include <cassert>
#include <chrono>
#include <future>
#include <limits>

namespace raincore::runtime {

namespace {

std::string shard_prefix(std::size_t k) {
  return "shard" + std::to_string(k) + ".";
}

}  // namespace

ThreadedNode::Worker::Worker(ThreadedNode& owner, std::size_t k)
    : loop(),
      env(loop, owner.cfg_.node,
          0x5e551077ull ^ (static_cast<std::uint64_t>(owner.cfg_.node) << 16) ^
              k),
      proxy(owner.io_loop_, loop, owner.transport_, owner.board_,
            static_cast<transport::MuxGroup>(owner.cfg_.base_group + k),
            owner.cfg_.queue_capacity, owner.runtime_reg_, shard_prefix(k)) {
  session::SessionConfig rc = owner.cfg_.ring;
  if (rc.metrics_prefix.empty()) rc.metrics_prefix = shard_prefix(k);
  ring = std::make_unique<session::SessionNode>(env, proxy, proxy.group(), rc);
  proxy.set_suspect_handler(
      [r = ring.get()](NodeId peer) { r->note_peer_suspect(peer); });
  loop.set_service_handler([p = &proxy] { p->worker_drain(); });
  if (!owner.cfg_.storage.dir.empty()) {
    // Per-shard durable delivery journal. The store is worker-owned: the
    // deliver handler below runs on this worker's thread, the same thread
    // that later executes drain()'s flush, so the ShardStore never sees two
    // threads. Recovery hooks are trivial — a restarted raincored re-syncs
    // from the live group; the journal is the durable trace of what this
    // member delivered, not a bootstrap source.
    store = std::make_unique<storage::ShardStore>(
        owner.cfg_.storage,
        owner.cfg_.storage.dir + "/shard" + std::to_string(k),
        shard_prefix(k));
    storage::ShardStore::Hooks hooks;
    hooks.begin_recovery = [] {};
    hooks.snapshot = [] { return Bytes{}; };
    hooks.load_snapshot = [](ByteReader&) {};
    hooks.replay = [](ByteReader&) {};
    store->attach(1, std::move(hooks));
    if (store->open()) {
      ring->set_deliver_handler([s = store.get()](NodeId origin,
                                                  const Slice& payload,
                                                  session::Ordering o) {
        if (o != session::Ordering::kAgreed) return;
        ByteWriter w(payload.size() + 8);
        w.u32(origin);
        w.bytes(payload);
        s->append(1, w.take());
      });
    } else {
      store.reset();
    }
  }
}

ThreadedNode::ThreadedNode(ThreadedNodeConfig cfg)
    : cfg_(std::move(cfg)),
      endpoint_(io_loop_, book_,
                net::UdpEndpointConfig{cfg_.node, cfg_.ifaces, cfg_.bind_ip,
                                       cfg_.ports, /*rng_seed=*/0}),
      transport_(endpoint_, cfg_.transport) {
  for (NodeId peer : cfg_.peers) {
    board_.add_peer(peer, transport_.failure_detection_bound(peer));
  }
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    workers_.push_back(std::make_unique<Worker>(*this, k));
  }
  // All wiring below runs single-threaded, before start() spawns anything.
  for (auto& w : workers_) {
    transport_.set_group_handler(
        w->proxy.group(), [p = &w->proxy](NodeId src, Slice payload) {
          p->io_deliver(src, std::move(payload));
        });
  }
  transport_.set_failure_observer([this](NodeId peer,
                                         transport::MuxGroup group) {
    for (auto& w : workers_) {
      if (w->proxy.group() != group) w->proxy.io_notify_suspect(peer);
    }
  });
  io_loop_.set_service_handler([this] {
    for (auto& w : workers_) w->proxy.io_drain_commands();
  });
}

ThreadedNode::~ThreadedNode() { stop(); }

void ThreadedNode::add_peer(NodeId node, std::uint8_t iface,
                            const std::string& ip, std::uint16_t port) {
  assert(!running_ && "peer registration is setup-time only");
  book_.set(net::Address{node, iface}, ip, port);
  bool known = false;
  for (NodeId p : cfg_.peers) known = known || p == node;
  if (!known) {
    cfg_.peers.push_back(node);
    board_.add_peer(node, transport_.failure_detection_bound(node));
  }
}

void ThreadedNode::start() {
  if (running_) return;
  running_ = true;
  io_loop_.schedule(0, [this] { publish_peer_status(); });
  io_thread_ = std::thread([this] {
    // The last shard slot is the I/O thread's; workers count up from 1 so
    // slot 0 stays the sim/default shard.
    set_thread_metric_shard(
        static_cast<unsigned>(Histogram::kMaxThreadShards - 1));
    io_loop_.run();
  });
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    Worker* w = workers_[k].get();
    w->thread = std::thread([w, k] {
      set_thread_metric_shard(static_cast<unsigned>(1 + k));
      w->loop.run();
    });
  }
}

void ThreadedNode::stop() {
  if (!running_) return;
  // Crash-stop every ring on its own worker first, so the protocol stops
  // arming timers and queueing sends before any loop winds down.
  for (auto& w : workers_) {
    w->loop.post([r = w->ring.get()] {
      if (r->started()) r->stop();
    });
  }
  for (auto& w : workers_) {
    w->loop.stop();
    if (w->thread.joinable()) w->thread.join();
  }
  io_loop_.stop();
  if (io_thread_.joinable()) io_thread_.join();
  running_ = false;
}

bool ThreadedNode::drain(Time timeout) {
  if (!running_) return true;
  for (auto& w : workers_) {
    w->loop.post([r = w->ring.get()] {
      if (r->started()) r->leave();
    });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout);
  bool all_left = false;
  while (!all_left && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    all_left = true;
    for (std::size_t k = 0; k < workers_.size() && all_left; ++k) {
      bool started = true;
      run_on_shard(k, [&started](session::SessionNode& r) {
        started = r.started();
      });
      all_left = !started;
    }
  }
  // Flush every per-shard WAL on its owning worker, while the loops are
  // still serving, so the journals are durable before any thread winds down.
  for (auto& w : workers_) {
    if (!w->store) continue;
    std::promise<void> done;
    auto flushed = done.get_future();
    w->loop.post([s = w->store.get(), &done] {
      s->flush();
      done.set_value();
    });
    flushed.wait();
  }
  stop();
  return all_left;
}

void ThreadedNode::post_to_shard(std::size_t k,
                                 std::function<void(session::SessionNode&)> fn) {
  Worker& w = *workers_.at(k);
  w.loop.post([&w, fn = std::move(fn)] { fn(*w.ring); });
}

void ThreadedNode::run_on_shard(std::size_t k,
                                std::function<void(session::SessionNode&)> fn) {
  assert(running_ && "run_on_shard needs a live worker to execute on");
  Worker& w = *workers_.at(k);
  std::promise<void> done;
  auto finished = done.get_future();
  w.loop.post([&w, &fn, &done] {
    fn(*w.ring);
    done.set_value();
  });
  finished.wait();
}

void ThreadedNode::found_all() {
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    post_to_shard(k, [](session::SessionNode& r) { r.found(); });
  }
}

void ThreadedNode::join_all(std::vector<NodeId> contacts) {
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    post_to_shard(k, [contacts](session::SessionNode& r) { r.join(contacts); });
  }
}

std::size_t ThreadedNode::view_size(std::size_t k) {
  std::size_t n = 0;
  run_on_shard(k, [&n](session::SessionNode& r) {
    if (r.started()) n = r.view().members.size();
  });
  return n;
}

bool ThreadedNode::all_converged(std::size_t n) {
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    if (view_size(k) != n) return false;
  }
  return true;
}

metrics::Snapshot ThreadedNode::metrics_snapshot() const {
  metrics::Snapshot s = transport_.metrics().snapshot();
  for (const auto& w : workers_) {
    s.merge(w->ring->metrics().snapshot());
    if (w->store) s.merge(w->store->metrics().snapshot());
  }
  s.merge(runtime_reg_.snapshot());
  return s;
}

void ThreadedNode::publish_peer_status() {
  const Time now = io_loop_.now();
  for (NodeId peer : cfg_.peers) {
    const Time since = transport_.since_heard(peer);
    const Time at = since == std::numeric_limits<Time>::max()
                        ? PeerStatusBoard::kNever
                        : now - since;
    board_.publish(peer, at, transport_.failure_detection_bound(peer));
  }
  io_loop_.schedule(cfg_.status_refresh, [this] { publish_peer_status(); });
}

}  // namespace raincore::runtime
