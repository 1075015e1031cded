// Maps logical protocol addresses (node, iface) to UDP socket addresses.
//
// The simulator never needs this — logical addresses are the routing key —
// but real sockets do, and with ephemeral binding (port 0 + getsockname
// discovery, the CI-friendly default) the mapping is only known after
// bind. Every endpoint publishes its own bound ports here, so endpoints
// sharing one book (an in-process cluster) find each other; raincored and
// ThreadedNode fill in their peers from config or add_peer().
//
// Threading: written during single-threaded setup (before the I/O loop
// runs) and read from the I/O thread on every send. Entries are never
// removed or rewritten while the loop runs.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <map>
#include <string>

#include "common/types.h"
#include "net/packet.h"

namespace raincore::net {

class AddressBook {
 public:
  /// Registers (or replaces, setup-time only) the socket address of a
  /// logical address. `ip` is a dotted quad; `port` is host byte order.
  void set(const Address& a, const std::string& ip, std::uint16_t port);

  /// Resolved sockaddr for a logical address; false when unknown (the
  /// caller drops the datagram — indistinguishable from UDP loss, which
  /// the transport already tolerates).
  bool lookup(const Address& a, sockaddr_in& out) const;

  bool contains(const Address& a) const { return entries_.count(key(a)) > 0; }
  std::uint16_t port_of(const Address& a) const;
  std::size_t size() const { return entries_.size(); }

 private:
  static std::uint64_t key(const Address& a) {
    return (static_cast<std::uint64_t>(a.node) << 8) | a.iface;
  }

  std::map<std::uint64_t, sockaddr_in> entries_;
};

}  // namespace raincore::net
