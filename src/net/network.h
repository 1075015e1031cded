// The per-node environment every Raincore protocol object runs against.
//
// Protocol stacks (transport, session, baselines, applications) are passive
// state machines: they receive datagrams and timer callbacks and emit sends
// and new timers through this interface. The deterministic simulator
// (sim_network.h), the real-socket endpoint (udp_endpoint.h) and a worker
// ring's env (runtime/worker_env.h) implement the datagram half, so the
// exact same protocol bytes run in simulation and on UDP. Timers, the
// clock and the rng are implemented once, here: they forward to the
// node's Scheduler and a per-node Rng that the implementation passes in.
#pragma once

#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "net/packet.h"
#include "net/scheduler.h"

namespace raincore::net {

using ReceiveFn = std::function<void(Datagram&&)>;

class NodeEnv {
 public:
  virtual ~NodeEnv() = default;

  virtual NodeId node() const = 0;
  virtual std::uint8_t iface_count() const = 0;

  /// Sends an unreliable datagram from the given local interface. The
  /// payload is a ref-counted view: fan-out (retries, parallel interfaces)
  /// passes the same storage without copying.
  virtual void send(const Address& to, Slice payload, std::uint8_t from_iface) = 0;
  void send(const Address& to, Slice payload) { send(to, std::move(payload), 0); }
  void send(const Address& to, Bytes payload, std::uint8_t from_iface = 0) {
    send(to, Slice::take(std::move(payload)), from_iface);
  }

  /// One-shot timer; returns an id usable with cancel().
  TimerId schedule(Time delay, EventFn fn) {
    return scheduler_.schedule(delay, std::move(fn));
  }
  /// One-shot timer whose deadline the loop wakes for on time
  /// (Scheduler::schedule_exact_at); only the token's pass deadline uses
  /// it. The virtual-time loop has no coarse wakes and treats it as
  /// schedule().
  TimerId schedule_exact(Time delay, EventFn fn) {
    return scheduler_.schedule_exact(delay, std::move(fn));
  }
  void cancel(TimerId id) { scheduler_.cancel(id); }

  Time now() const { return scheduler_.now(); }
  Rng& rng() { return rng_; }

  /// Installs the datagram receiver; exactly one receiver per node, the
  /// bottom of the local protocol stack (normally the Transport Service).
  virtual void set_receiver(ReceiveFn fn) = 0;

 protected:
  /// The scheduler must outlive the env.
  NodeEnv(Scheduler& scheduler, Rng rng) : scheduler_(scheduler), rng_(rng) {}

 private:
  Scheduler& scheduler_;
  Rng rng_;
};

}  // namespace raincore::net
