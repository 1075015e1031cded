#include "net/udp_endpoint.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/buffer.h"

namespace raincore::net {

// The rng seed is per node: real-time runs are not replayable anyway, and
// the seed only decorrelates jittered timers across nodes.
UdpEndpoint::UdpEndpoint(RealTimeLoop& loop, AddressBook& book,
                         UdpEndpointConfig cfg)
    : NodeEnv(loop, Rng(0xacedull ^ cfg.node)),
      loop_(loop),
      book_(book),
      cfg_(std::move(cfg)) {
  assert(cfg_.ifaces >= 1);
  fds_.resize(cfg_.ifaces, -1);
  ports_.resize(cfg_.ifaces, 0);
  for (std::uint8_t i = 0; i < cfg_.ifaces; ++i) {
    int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    std::uint16_t want = i < cfg_.ports.size() ? cfg_.ports[i] : 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(want);
    ::inet_pton(AF_INET, cfg_.bind_ip.c_str(), &addr.sin_addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("bind(" + cfg_.bind_ip + ":" +
                               std::to_string(want) + ") failed for node " +
                               std::to_string(cfg_.node));
    }
    // Ephemeral discovery: ask the kernel what it picked.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      throw std::runtime_error("getsockname() failed");
    }
    fds_[i] = fd;
    ports_[i] = ntohs(bound.sin_port);
    book_.set(Address{cfg_.node, i}, cfg_.bind_ip, ports_[i]);
    loop_.watch_fd(fd, [this, i](std::uint32_t) { drain(i); });
  }
}

UdpEndpoint::~UdpEndpoint() {
  for (int fd : fds_) {
    if (fd >= 0) {
      loop_.unwatch_fd(fd);
      ::close(fd);
    }
  }
}

void UdpEndpoint::send(const Address& to, Slice payload,
                       std::uint8_t from_iface) {
  assert(from_iface < cfg_.ifaces);
  sockaddr_in addr{};
  if (!book_.lookup(to, addr)) {  // unknown peer == lost datagram
    send_failures_.unknown_peer.inc();
    return;
  }

  std::uint8_t hdr[5];
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<std::uint8_t>(cfg_.node >> (8 * i));
  }
  hdr[4] = from_iface;

  iovec iov[2];
  iov[0].iov_base = hdr;
  iov[0].iov_len = sizeof(hdr);
  iov[1].iov_base = const_cast<std::uint8_t*>(payload.data());
  iov[1].iov_len = payload.size();
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  if (::sendmsg(fds_[from_iface], &msg, 0) < 0) count_send_failure(errno);
}

void UdpEndpoint::count_send_failure(int err) {
  switch (err) {
    case EMSGSIZE:
      send_failures_.emsgsize.inc();
      break;
    case EAGAIN:
    case ENOBUFS:
      send_failures_.buffer_full.inc();
      break;
    default:
      send_failures_.other.inc();
  }
}

void UdpEndpoint::drain(std::uint8_t iface) {
  std::uint8_t buf[65536];
  for (;;) {
    ssize_t n = ::recv(fds_[iface], buf, sizeof(buf), 0);
    if (n < 0) break;  // EAGAIN: drained (edge-triggered contract)
    if (n < 5) continue;  // malformed frame
    ByteReader r(buf, static_cast<std::size_t>(n));
    Datagram d;
    d.src.node = r.u32();
    d.src.iface = r.u8();
    d.dst = Address{cfg_.node, iface};
    // One copy off the stack receive buffer; everything above (transport
    // payload, decoded piggyback messages) aliases this storage.
    d.payload = Slice::copy(buf + 5, static_cast<std::size_t>(n) - 5);
    if (receiver_) receiver_(std::move(d));
  }
}

}  // namespace raincore::net
