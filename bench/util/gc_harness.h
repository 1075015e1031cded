// Bench harness: runs the same multicast workload over Raincore or one of
// the baseline group-communication stacks and reports the §4.1 metrics —
// per-node task switches, network packets/bytes, and delivery latency.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/broadcast_gc.h"
#include "baseline/sequencer_gc.h"
#include "baseline/two_phase_gc.h"
#include "common/stats.h"
#include "testing/cluster.h"

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
/// multicast workload helpers and metric collection. Raincore nodes are a
/// testing::Cluster of one ring each; the baselines run on its network.
class GcCluster {
 public:
  GcCluster(Stack stack, std::size_t n, session::SessionConfig scfg = {},
            net::SimNetConfig ncfg = {})
      : stack_(stack),
        ids_(testing::node_ids(n)),
        raincore_(stack == Stack::kRaincore ? ids_ : std::vector<NodeId>{},
                  std::move(scfg), ncfg) {
    for (NodeId id : ids_) {
      Member& m = members_[id];
      if (stack == Stack::kRaincore) {
        raincore_.node(id).set_deliver_handler(
            [this](NodeId, const Slice& payload, session::Ordering) {
              on_deliver(payload);
            });
        continue;
      }
      auto& env = net().add_node(id);
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
          [this](NodeId, const Slice& payload) { on_deliver(payload); });
    }
  }

  /// Boots the cluster. For Raincore this forms the ring through node 1
  /// and exits the bench if it does not converge; baselines are static and
  /// start instantly.
  void start() {
    if (stack_ != Stack::kRaincore) return;
    raincore_.bootstrap_via_join();
    if (!raincore_.run_until_converged(ids_, seconds(30))) {
      std::fprintf(stderr, "FATAL: the %zu-node ring did not form in 30 s\n",
                   ids_.size());
      std::exit(1);
    }
  }

  void run(Time d) { net().loop().run_for(d); }

  /// Multicasts a payload of `bytes` bytes stamped with the submit time.
  void multicast(NodeId from, std::size_t bytes) {
    ByteWriter w(bytes + 16);
    w.u64(next_msg_id_);
    w.i64(net().now());
    for (std::size_t i = w.size(); i < bytes; ++i) w.u8(0xab);
    ++next_msg_id_;
    if (stack_ == Stack::kRaincore) {
      raincore_.node(from).multicast(w.take());
    } else {
      members_.at(from).gc->multicast(w.take());
    }
  }

  /// Resets all measurement state (call after warmup).
  void reset_metrics() {
    net().reset_stats();
    deliveries_ = 0;
    latency_.reset();
    for (auto& [id, m] : members_) {
      m.ts_baseline = task_switches_of(id);
    }
  }

  /// Mean per-node task switches since reset_metrics().
  double mean_task_switches() {
    double sum = 0;
    for (auto& [id, m] : members_) {
      sum += static_cast<double>(task_switches_of(id) - m.ts_baseline);
    }
    return sum / static_cast<double>(members_.size());
  }

  net::SimNetwork& net() { return raincore_.net(); }
  const std::vector<NodeId>& ids() const { return ids_; }
  std::uint64_t deliveries() const { return deliveries_; }
  const Histogram& latency() const { return latency_; }
  session::SessionNode& session(NodeId id) { return raincore_.node(id); }

 private:
  struct Member {
    std::unique_ptr<baseline::GroupComm> gc;  // baselines
    std::uint64_t ts_baseline = 0;
  };

  std::uint64_t task_switches_of(NodeId id) {
    return stack_ == Stack::kRaincore
               ? raincore_.mux(id).transport().task_switches().value()
               : members_.at(id).gc->task_switches().value();
  }

  void on_deliver(const Slice& payload) {
    ++deliveries_;
    if (payload.size() >= 16) {
      ByteReader r(payload);
      std::uint64_t id = r.u64();
      Time sent = r.i64();
      auto& n = deliver_count_[id];
      ++n;
      if (n == ids_.size()) {
        // Message has reached every member: record full-delivery latency.
        latency_.record_time(net().now() - sent);
        deliver_count_.erase(id);
      }
    }
  }

  Stack stack_;
  std::vector<NodeId> ids_;
  testing::Cluster raincore_;  // no nodes when a baseline runs
  std::map<NodeId, Member> members_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t deliveries_ = 0;
  std::map<std::uint64_t, std::size_t> deliver_count_;
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
