// The NodeEnv a worker-pinned session ring runs against (DESIGN.md §5i).
//
// Timers, the clock and the rng are NodeEnv's; the timers run on the
// worker's own RealTimeLoop — single-threaded from the ring's perspective,
// exactly like the simulator — and the ring's exact pass deadline gets
// that loop's on-time wake.
// The datagram path does NOT go through this env: a threaded ring sends
// and receives exclusively through its TransportProxy (the I/O thread owns
// the sockets and the reliable transport). send()/set_receiver() here are
// therefore dead ends kept only to satisfy the interface; reaching them
// means a component that belongs on the I/O thread was wired to a worker.
#pragma once

#include <cassert>

#include "net/network.h"
#include "net/real_time_loop.h"

namespace raincore::runtime {

class WorkerEnv final : public net::NodeEnv {
 public:
  WorkerEnv(net::RealTimeLoop& loop, NodeId node, std::uint64_t rng_seed)
      : NodeEnv(loop, Rng(rng_seed)), node_(node) {}

  NodeId node() const override { return node_; }
  std::uint8_t iface_count() const override { return 1; }

  void send(const net::Address&, Slice, std::uint8_t) override {
    assert(false && "worker rings send through their TransportProxy");
  }
  void set_receiver(net::ReceiveFn) override {
    assert(false && "worker rings receive through their TransportProxy");
  }

 private:
  NodeId node_;
};

}  // namespace raincore::runtime
