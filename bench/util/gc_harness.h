// Bench harness: runs the same multicast workload over Raincore or one of
// the baseline group-communication stacks and reports the §4.1 metrics —
// per-node task switches, network packets/bytes, and delivery latency.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/broadcast_gc.h"
#include "baseline/sequencer_gc.h"
#include "baseline/two_phase_gc.h"
#include "common/stats.h"
#include "net/sim_network.h"
#include "session/session_mux.h"

namespace raincore::bench {

enum class Stack { kRaincore, kBroadcast, kSequencer, kTwoPhase };

inline const char* stack_name(Stack s) {
  switch (s) {
    case Stack::kRaincore: return "raincore";
    case Stack::kBroadcast: return "bcast-unicast";
    case Stack::kSequencer: return "sequencer";
    case Stack::kTwoPhase: return "2pc";
  }
  return "?";
}

/// A cluster of N nodes all running the chosen stack, with uniform
/// multicast workload helpers and metric collection.
class GcCluster {
 public:
  GcCluster(Stack stack, std::size_t n, session::SessionConfig scfg = {},
            net::SimNetConfig ncfg = {})
      : stack_(stack), net_(ncfg) {
    for (NodeId id = 1; id <= n; ++id) ids_.push_back(id);
    scfg.eligible = ids_;
    for (NodeId id : ids_) {
      auto& env = net_.add_node(id);
      Member m;
      if (stack == Stack::kRaincore) {
        m.node = std::make_unique<session::SessionMux>(env, scfg.transport);
        m.session = &m.node->create_ring(0, scfg);
        m.session->set_deliver_handler(
            [this, id](NodeId origin, const Slice& payload, session::Ordering) {
              on_deliver(id, origin, payload);
            });
      } else {
        switch (stack) {
          case Stack::kBroadcast:
            m.gc = std::make_unique<baseline::BroadcastGC>(env, ids_);
            break;
          case Stack::kSequencer:
            m.gc = std::make_unique<baseline::SequencerGC>(env, ids_);
            break;
          default:
            m.gc = std::make_unique<baseline::TwoPhaseGC>(env, ids_);
        }
        m.gc->set_deliver_handler(
            [this, id](NodeId origin, const Slice& payload) {
              on_deliver(id, origin, payload);
            });
      }
      members_[id] = std::move(m);
    }
  }

  /// Boots the cluster. For Raincore this forms the ring and waits for
  /// convergence; baselines are static and start instantly.
  void start() {
    if (stack_ != Stack::kRaincore) return;
    auto it = members_.begin();
    it->second.session->found();
    NodeId seed = it->first;
    for (++it; it != members_.end(); ++it) it->second.session->join({seed});
    // Converge.
    for (int i = 0; i < 3000; ++i) {
      net_.loop().run_for(millis(10));
      bool ok = true;
      for (auto& [id, m] : members_) {
        if (m.session->view().members.size() != ids_.size()) ok = false;
      }
      if (ok) return;
    }
  }

  void run(Time d) { net_.loop().run_for(d); }

  /// Multicasts a payload of `bytes` bytes stamped with the submit time.
  void multicast(NodeId from, std::size_t bytes) {
    ByteWriter w(bytes + 16);
    w.u64(next_msg_id_);
    w.i64(net_.now());
    for (std::size_t i = w.size(); i < bytes; ++i) w.u8(0xab);
    submit_time_[next_msg_id_] = net_.now();
    ++next_msg_id_;
    Member& m = members_.at(from);
    if (m.session) {
      m.session->multicast(w.take());
    } else {
      m.gc->multicast(w.take());
    }
  }

  void on_deliver(NodeId at, NodeId, const Slice& payload) {
    (void)at;
    ++deliveries_;
    if (payload.size() >= 16) {
      ByteReader r(payload);
      std::uint64_t id = r.u64();
      Time sent = r.i64();
      auto& n = deliver_count_[id];
      ++n;
      if (n == ids_.size()) {
        // Message has reached every member: record full-delivery latency.
        latency_.record_time(net_.now() - sent);
        deliver_count_.erase(id);
        submit_time_.erase(id);
      }
    }
  }

  /// Resets all measurement state (call after warmup).
  void reset_metrics() {
    net_.reset_stats();
    deliveries_ = 0;
    latency_.reset();
    for (auto& [id, m] : members_) {
      m.ts_baseline = task_switches_of(id);
    }
  }

  std::uint64_t task_switches_of(NodeId id) const {
    const Member& m = members_.at(id);
    return m.node ? m.node->transport().task_switches().value()
                     : m.gc->task_switches().value();
  }

  /// Mean per-node task switches since reset_metrics().
  double mean_task_switches() const {
    double sum = 0;
    for (auto& [id, m] : members_) {
      sum += static_cast<double>(task_switches_of(id) - m.ts_baseline);
    }
    return sum / static_cast<double>(members_.size());
  }

  net::SimNetwork& net() { return net_; }
  const std::vector<NodeId>& ids() const { return ids_; }
  std::uint64_t deliveries() const { return deliveries_; }
  const Histogram& latency() const { return latency_; }
  session::SessionNode& session(NodeId id) { return *members_.at(id).session; }

 private:
  struct Member {
    std::unique_ptr<session::SessionMux> node;  // raincore
    session::SessionNode* session = nullptr;    // node's one ring
    std::unique_ptr<baseline::GroupComm> gc;    // baselines
    std::uint64_t ts_baseline = 0;
  };

  Stack stack_;
  net::SimNetwork net_;
  std::vector<NodeId> ids_;
  std::map<NodeId, Member> members_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t deliveries_ = 0;
  std::map<std::uint64_t, std::size_t> deliver_count_;
  std::map<std::uint64_t, Time> submit_time_;
  Histogram latency_;
};

/// Prints a header banner shared by all bench binaries.
inline void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace raincore::bench
