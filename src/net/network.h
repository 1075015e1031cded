// The per-node environment every Raincore protocol object runs against.
//
// Protocol stacks (transport, session, baselines, applications) are passive
// state machines: they receive datagrams and timer callbacks and emit sends
// and new timers through this interface. The deterministic simulator
// (sim_network.h) and the real-socket endpoint (udp_endpoint.h) both
// implement it, so the exact same protocol bytes run in simulation and on
// UDP.
#pragma once

#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "net/event_loop.h"
#include "net/packet.h"

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
  virtual TimerId schedule(Time delay, EventFn fn) = 0;
  /// One-shot timer whose deadline the loop wakes for on time
  /// (Scheduler::schedule_exact_at); only the token's pass deadline uses
  /// it. An env whose loop has no coarse wakes treats it as schedule().
  virtual TimerId schedule_exact(Time delay, EventFn fn) = 0;
  virtual void cancel(TimerId id) = 0;

  virtual Time now() const = 0;
  virtual Rng& rng() = 0;

  /// Installs the datagram receiver; exactly one receiver per node, the
  /// bottom of the local protocol stack (normally the Transport Service).
  virtual void set_receiver(ReceiveFn fn) = 0;
};

}  // namespace raincore::net
