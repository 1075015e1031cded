#include "session/session_mux.h"

#include <cassert>

#include "common/log.h"

namespace raincore::session {

namespace {
constexpr const char* kMod = "mux";
}  // namespace

SessionMux::SessionMux(net::NodeEnv& env, transport::TransportConfig tcfg)
    : env_(env), transport_(env, tcfg) {
  // One detection, N membership updates: every failure-on-delivery the
  // shared transport observes becomes a suspicion stamp on every other
  // ring that knows the peer. Each ring then double-checks freshness and
  // global silence before removing. The ring whose transfer failed is
  // skipped: its own failure callback handles the pass, and a second
  // report of the same failure would spend its probation budget twice.
  transport_.set_failure_observer([this](NodeId peer,
                                         transport::MuxGroup group) {
    for (auto& [g, node] : rings_) {
      if (g != group) node->note_peer_suspect(peer);
    }
  });
}

SessionMux::~SessionMux() {
  // Each ring's destructor stops it; its stop must not call back into a
  // map that is being cleared. Rings unregister their group handlers in
  // their destructors, so drop them before the transport member goes.
  for (auto& [g, node] : rings_) node->set_started_handler(nullptr);
  rings_.clear();
}

SessionNode& SessionMux::create_ring(transport::MuxGroup group,
                                     SessionConfig cfg) {
  assert(rings_.find(group) == rings_.end() && "group already has a ring");
  auto node =
      std::make_unique<SessionNode>(env_, transport_, group, std::move(cfg));
  node->set_started_handler([this](bool started) { on_ring_started(started); });
  SessionNode& ref = *node;
  rings_.emplace(group, std::move(node));
  RC_INFO(kMod, "node %u: ring created on group %u (%zu rings share transport)",
          transport_.node(), static_cast<unsigned>(group), rings_.size());
  return ref;
}

void SessionMux::destroy_ring(transport::MuxGroup group) {
  auto it = rings_.find(group);
  if (it == rings_.end()) return;
  it->second->set_started_handler(nullptr);
  rings_.erase(it);
}

void SessionMux::on_ring_started(bool started) {
  if (started) {
    transport_.set_enabled(true);
    return;
  }
  for (auto& [g, node] : rings_) {
    if (node->started()) return;
  }
  transport_.set_enabled(false);
}

SessionNode* SessionMux::ring(transport::MuxGroup group) {
  auto it = rings_.find(group);
  return it != rings_.end() ? it->second.get() : nullptr;
}

const SessionNode* SessionMux::ring(transport::MuxGroup group) const {
  auto it = rings_.find(group);
  return it != rings_.end() ? it->second.get() : nullptr;
}

void SessionMux::set_enabled(bool enabled) {
  if (!enabled) {
    for (auto& [g, node] : rings_) node->stop();
    transport_.set_enabled(false);
  } else {
    transport_.set_enabled(true);
    // Rings stay stopped: the harness decides how each one comes back
    // (found as a new incarnation, or join via contacts).
  }
}

metrics::Snapshot SessionMux::metrics_snapshot() const {
  metrics::Snapshot s = transport_.metrics().snapshot();
  for (const auto& [g, node] : rings_) s.merge(node->metrics().snapshot());
  return s;
}

}  // namespace raincore::session
