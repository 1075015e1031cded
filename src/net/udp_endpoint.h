// One node's UDP feet on the ground: a NodeEnv over real non-blocking
// sockets, driven by a RealTimeLoop.
//
// This is the production building block: a ThreadedNode (and so a
// raincored process) owns exactly one, with the book filled from its
// config's peer list. Several endpoints may also share one loop and one
// AddressBook in-process. Sockets bind non-blocking and register
// edge-triggered with the loop; each readiness callback drains until
// EAGAIN.
//
// Binding to port 0 (the default) picks an ephemeral port, discovered via
// getsockname and published to the AddressBook — parallel CI runs never
// contend for a fixed port. Fixed ports remain available for cross-process
// clusters where peers must be named in a config file.
//
// Wire framing: [src_node u32 LE][src_iface u8] + payload. The header
// travels as a separate iovec; the payload Slice is shared with retries
// and parallel interfaces, never copied or prepended in place.
//
// Timers, the clock and the rng are NodeEnv's, on the endpoint's loop:
// schedule_exact() gets that loop's on-time wake. In a ThreadedNode only
// the I/O thread's transport runs here (its timers are ordinary); rings
// run on a WorkerEnv.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/address_book.h"
#include "net/network.h"
#include "net/real_time_loop.h"

namespace raincore::net {

struct UdpEndpointConfig {
  NodeId node = 0;
  std::uint8_t ifaces = 1;
  std::string bind_ip = "127.0.0.1";
  /// Host-order bind port per interface; missing or 0 entries bind
  /// ephemeral (discovered via getsockname).
  std::vector<std::uint16_t> ports;
};

class UdpEndpoint final : public NodeEnv {
 public:
  /// Binds and registers with the loop. The loop and book must outlive the
  /// endpoint; construction happens before the loop thread starts (or on
  /// it). Throws std::runtime_error when a requested port is unavailable.
  UdpEndpoint(RealTimeLoop& loop, AddressBook& book, UdpEndpointConfig cfg);
  ~UdpEndpoint() override;
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  // NodeEnv interface (I/O-loop thread).
  NodeId node() const override { return cfg_.node; }
  std::uint8_t iface_count() const override { return cfg_.ifaces; }
  void send(const Address& to, Slice payload, std::uint8_t from_iface) override;
  void set_receiver(ReceiveFn fn) override { receiver_ = std::move(fn); }

  /// Actual bound port (host order) — the ephemeral-discovery accessor.
  std::uint16_t port(std::uint8_t iface) const { return ports_.at(iface); }

 private:
  void drain(std::uint8_t iface);

  RealTimeLoop& loop_;
  AddressBook& book_;
  UdpEndpointConfig cfg_;
  ReceiveFn receiver_;
  std::vector<int> fds_;
  std::vector<std::uint16_t> ports_;
};

}  // namespace raincore::net
