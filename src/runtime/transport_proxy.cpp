#include "runtime/transport_proxy.h"

#include <sched.h>

#include <cassert>

namespace raincore::runtime {

namespace {
constexpr int kEventPushRetries = 1024;
}  // namespace

TransportProxy::TransportProxy(net::RealTimeLoop& io_loop,
                               net::RealTimeLoop& worker_loop,
                               transport::ReliableTransport& transport,
                               PeerStatusBoard& board,
                               transport::MuxGroup group,
                               std::size_t queue_capacity,
                               metrics::Registry& reg,
                               const std::string& prefix)
    : io_loop_(io_loop),
      worker_loop_(worker_loop),
      transport_(transport),
      board_(board),
      group_(group),
      cfg_(transport.config()),
      commands_(queue_capacity),
      events_(queue_capacity * 2),
      cmd_dropped_(reg.counter(prefix + "runtime.proxy.cmd_dropped")),
      inbound_dropped_(reg.counter(prefix + "runtime.proxy.inbound_dropped")),
      event_retries_(reg.counter(prefix + "runtime.proxy.event_retries")),
      event_dropped_(reg.counter(prefix + "runtime.proxy.event_dropped")) {}

// --- Worker thread -----------------------------------------------------------

transport::TransferId TransportProxy::send_on(transport::MuxGroup group,
                                              NodeId dst, Slice payload,
                                              transport::DeliveredFn delivered,
                                              transport::FailedFn failed) {
  assert(group == group_ && "a proxy serves exactly one ring/group");
  (void)group;
  std::uint64_t id = next_client_id_++;
  Command c{Cmd::kSend, dst, id, static_cast<bool>(delivered),
            std::move(payload)};
  if (!commands_.try_push(std::move(c))) {
    // Saturated command ring == dead wire: fail the transfer locally, on
    // the worker loop (never re-entrantly from inside send_on).
    cmd_dropped_.inc();
    if (failed) {
      worker_loop_.schedule(0, [failed = std::move(failed), id, dst] {
        failed(id, dst);
      });
    }
    return id;
  }
  if (delivered || failed) {
    pending_[id] = PendingCallbacks{std::move(delivered), std::move(failed)};
  }
  io_loop_.notify();
  return id;
}

void TransportProxy::send_unreliable_on(transport::MuxGroup group, NodeId dst,
                                        Slice payload) {
  assert(group == group_ && "a proxy serves exactly one ring/group");
  (void)group;
  Command c{Cmd::kUnreliable, dst, 0, false, std::move(payload)};
  if (!commands_.try_push(std::move(c))) {
    cmd_dropped_.inc();  // fire-and-forget: dropping is within contract
    return;
  }
  io_loop_.notify();
}

void TransportProxy::set_group_handler(transport::MuxGroup group,
                                       transport::MessageFn fn) {
  assert(group == group_ && "a proxy serves exactly one ring/group");
  (void)group;
  handler_ = std::move(fn);
}

void TransportProxy::forget_peer(NodeId peer) {
  Command c{Cmd::kForget, peer, 0, false, Slice{}};
  if (!commands_.try_push(std::move(c))) {
    // Dropping a forget only delays peer-state GC; the next membership
    // change retries it.
    cmd_dropped_.inc();
    return;
  }
  io_loop_.notify();
}

void TransportProxy::worker_drain() {
  Event ev;
  while (events_.try_pop(ev)) {
    switch (ev.kind) {
      case Ev::kInbound:
        if (handler_) handler_(ev.peer, std::move(ev.payload));
        break;
      case Ev::kDelivered: {
        auto it = pending_.find(ev.client_id);
        if (it == pending_.end()) break;
        auto cbs = std::move(it->second);
        pending_.erase(it);
        if (cbs.delivered) cbs.delivered(ev.client_id, ev.peer);
        break;
      }
      case Ev::kFailed: {
        auto it = pending_.find(ev.client_id);
        if (it == pending_.end()) break;
        auto cbs = std::move(it->second);
        pending_.erase(it);
        if (cbs.failed) cbs.failed(ev.client_id, ev.peer);
        break;
      }
      case Ev::kSuspect:
        if (on_suspect_) on_suspect_(ev.peer);
        break;
    }
  }
}

// --- I/O thread --------------------------------------------------------------

void TransportProxy::io_drain_commands() {
  Command c;
  while (commands_.try_pop(c)) {
    switch (c.kind) {
      case Cmd::kSend: {
        std::uint64_t id = c.client_id;
        const bool wake = c.wake_on_delivered;
        transport_.send_on(
            group_, c.dst, std::move(c.payload),
            [this, id, wake](transport::TransferId, NodeId peer) {
              io_push_event_reliably(Event{Ev::kDelivered, peer, id, Slice{}});
              if (wake) worker_loop_.notify();
            },
            [this, id](transport::TransferId, NodeId peer) {
              io_push_event_reliably(Event{Ev::kFailed, peer, id, Slice{}});
              worker_loop_.notify();
            });
        break;
      }
      case Cmd::kUnreliable:
        transport_.send_unreliable_on(group_, c.dst, std::move(c.payload));
        break;
      case Cmd::kForget:
        transport_.forget_peer(c.dst);
        break;
    }
  }
}

void TransportProxy::io_deliver(NodeId src, Slice payload) {
  // Inbound datagram handoff: a full inbox counts and drops, same shape as
  // wire loss one layer down — the reliable-transport dedup/ack work is
  // already done, and the session protocol's 911/retransmission paths
  // recover anything that mattered.
  if (!events_.try_push(Event{Ev::kInbound, src, 0, std::move(payload)})) {
    inbound_dropped_.inc();
    return;
  }
  worker_loop_.notify();
}

void TransportProxy::io_notify_suspect(NodeId peer) {
  io_push_event_reliably(Event{Ev::kSuspect, peer, 0, Slice{}});
  worker_loop_.notify();
}

void TransportProxy::io_push_event_reliably(Event ev) {
  for (int i = 0; i < kEventPushRetries; ++i) {
    if (events_.try_push(std::move(ev))) return;
    // Let the worker run and drain (decisive on a single-core box).
    event_retries_.inc();
    worker_loop_.notify();
    sched_yield();
  }
  event_dropped_.inc();
}

}  // namespace raincore::runtime
