#include "testing/oracles.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace raincore::testing {

namespace {

constexpr Time kStep = millis(10);
/// A removal decided during the fault window (a token pass failed across a
/// partition that healed an instant later) can land a few milliseconds
/// after the heal. Judging a group that is converged for one sample would
/// run the post-heal checks against a ring about to lose a member; this
/// window lets such a removal land, the victim rejoin, and the group
/// settle first.
constexpr Time kStableWindow = millis(300);

std::size_t rings_per_node(const RingTable& rings) {
  return rings.empty() ? 0 : rings.begin()->second.size();
}

/// "node 3", or "node 3 ring 1" when nodes run several rings.
std::string label(NodeId id, std::size_t ring, std::size_t n_rings) {
  std::string out = "node " + std::to_string(id);
  if (n_rings > 1) out += " ring " + std::to_string(ring);
  return out;
}

std::vector<NodeId> sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

bool run_until(net::EventLoop& loop, Time timeout,
               const std::function<bool()>& done, Time step) {
  const Time deadline = loop.now() + timeout;
  while (loop.now() < deadline) {
    if (done()) return true;
    loop.run_for(step);
  }
  return false;
}

bool run_until_stable(net::EventLoop& loop, Time timeout,
                      const std::function<bool()>& holds) {
  const Time deadline = loop.now() + timeout;
  Time stable_since = -1;
  while (loop.now() < deadline) {
    if (holds()) {
      if (stable_since < 0) stable_since = loop.now();
      if (loop.now() - stable_since >= kStableWindow) return true;
    } else {
      stable_since = -1;
    }
    loop.run_for(kStep);
  }
  return false;
}

bool rings_converged(const RingTable& rings, const std::vector<NodeId>& live) {
  const std::vector<NodeId> want = sorted(live);
  for (NodeId id : live) {
    for (const session::SessionNode* ring : rings.at(id)) {
      if (!ring->started() || sorted(ring->view().members) != want) {
        return false;
      }
    }
  }
  return true;
}

void check_token_uniqueness(const RingTable& rings, const char* when,
                            Time now, const ViolationFn& violation) {
  const std::size_t n_rings = rings_per_node(rings);
  for (std::size_t r = 0; r < n_rings; ++r) {
    for (auto it = rings.begin(); it != rings.end(); ++it) {
      const auto& a = *it->second[r];
      if (!a.started() || !a.holds_token()) continue;
      for (auto jt = std::next(it); jt != rings.end(); ++jt) {
        const auto& b = *jt->second[r];
        if (!b.started() || !b.holds_token()) continue;
        if (a.view() == b.view()) {
          violation((n_rings > 1 ? "ring " + std::to_string(r) + " " : "") +
                    "token uniqueness (" + when + "): nodes " +
                    std::to_string(it->first) + " and " +
                    std::to_string(jt->first) +
                    " both EATING in identical view at t=" +
                    std::to_string(to_millis(now)) + "ms");
        }
      }
    }
  }
}

void check_membership(const RingTable& rings, const std::vector<NodeId>& live,
                      const ViolationFn& violation) {
  const std::size_t n_rings = rings_per_node(rings);
  const std::vector<NodeId> want = sorted(live);
  for (NodeId id : live) {
    for (std::size_t r = 0; r < n_rings; ++r) {
      const auto& ring = *rings.at(id)[r];
      const std::vector<NodeId> got = sorted(ring.view().members);
      if (!ring.started() || got != want) {
        std::string members;
        for (NodeId m : got) members += std::to_string(m) + " ";
        violation("membership: " + label(id, r, n_rings) +
                  " did not converge to the live set (has: " + members + ")");
      }
    }
  }
}

void check_counter_order(const std::vector<Delivered>& log,
                         const std::string& where, const ViolationFn& violation) {
  // (recv_epoch, origin, origin_epoch) -> (seen, counter)
  std::map<std::tuple<std::uint64_t, NodeId, std::uint64_t>,
           std::pair<bool, std::uint64_t>>
      last;
  for (const Delivered& d : log) {
    if (d.payload.rfind("c:", 0) != 0) continue;
    NodeId origin = 0;
    std::uint64_t epoch = 0, counter = 0;
    if (std::sscanf(d.payload.c_str(), "c:%u:%llu:%llu", &origin,
                    reinterpret_cast<unsigned long long*>(&epoch),
                    reinterpret_cast<unsigned long long*>(&counter)) != 3) {
      violation("delivery: " + where +
                " received unparseable chaos payload '" + d.payload + "'");
      continue;
    }
    if (origin != d.origin) {
      violation("delivery: " + where + " got payload '" + d.payload +
                "' attributed to origin " + std::to_string(d.origin));
      continue;
    }
    auto& [seen, prev] = last[std::make_tuple(d.recv_epoch, origin, epoch)];
    if (seen && counter <= prev) {
      violation("delivery: " + where +
                " saw duplicate/out-of-order counter " +
                std::to_string(counter) + " after " + std::to_string(prev) +
                " from origin " + std::to_string(origin) + " epoch " +
                std::to_string(epoch));
    }
    seen = true;
    prev = counter;
  }
}

void check_counter_order(const RingTable& rings, const LogFn& log_of,
                         const ViolationFn& violation) {
  const std::size_t n_rings = rings_per_node(rings);
  for (const auto& [id, node_rings] : rings) {
    for (std::size_t r = 0; r < node_rings.size(); ++r) {
      check_counter_order(log_of(id, r), label(id, r, n_rings), violation);
    }
  }
}

void check_final_batch(net::EventLoop& loop, const RingTable& rings,
                       const std::vector<NodeId>& live,
                       const FinalBatch& batch, const LogFn& log_of,
                       const ViolationFn& violation) {
  const std::size_t n_rings = rings_per_node(rings);
  auto payload = [n_rings](NodeId id, std::size_t r, int k) {
    return "f:" + std::to_string(id) + ":" +
           (n_rings > 1 ? std::to_string(r) + ":" : "") + std::to_string(k);
  };
  std::map<NodeId, std::vector<std::size_t>> mark;
  for (NodeId id : live) {
    for (std::size_t r = 0; r < n_rings; ++r) {
      mark[id].push_back(log_of(id, r).size());
    }
  }
  for (NodeId id : live) {
    for (std::size_t r = 0; r < n_rings; ++r) {
      for (int k = 0; k < batch.per_node; ++k) {
        batch.send(id, r, payload(id, r, k));
      }
    }
  }
  const std::size_t expect = live.size() * batch.per_node;
  auto batch_of = [&](NodeId id, std::size_t r) {
    std::vector<std::pair<NodeId, std::string>> out;
    const auto& entries = log_of(id, r);
    for (std::size_t i = mark[id][r]; i < entries.size(); ++i) {
      if (entries[i].payload.rfind("f:", 0) == 0) {
        out.emplace_back(entries[i].origin, entries[i].payload);
      }
    }
    return out;
  };
  run_until(loop, batch.timeout, [&] {
    for (NodeId id : live) {
      for (std::size_t r = 0; r < n_rings; ++r) {
        if (batch_of(id, r).size() < expect) return false;
      }
    }
    return true;
  });
  const NodeId ref_id = live.front();
  for (std::size_t r = 0; r < n_rings; ++r) {
    const auto ref = batch_of(ref_id, r);
    if (ref.size() != expect) {
      violation("final batch: " + label(ref_id, r, n_rings) + " delivered " +
                std::to_string(ref.size()) + " of " + std::to_string(expect) +
                " fresh messages");
    }
    for (NodeId id : live) {
      const auto got = batch_of(id, r);
      if (got == ref) continue;
      std::string detail;
      for (const auto& [origin, p] : got) {
        if (!detail.empty()) detail += " ";
        detail += p;
      }
      violation("final batch: " + label(id, r, n_rings) +
                " delivered a different sequence than node " +
                std::to_string(ref_id) + " (" + std::to_string(got.size()) +
                " vs " + std::to_string(ref.size()) + " messages; got: [" +
                detail + "])");
    }
    // Completeness and exactly-once against the expected set.
    std::map<std::string, int> count;
    for (const auto& [origin, p] : ref) count[p]++;
    for (NodeId id : live) {
      for (int k = 0; k < batch.per_node; ++k) {
        const std::string p = payload(id, r, k);
        if (count[p] != 1) {
          violation("final batch: message '" + p + "' delivered " +
                    std::to_string(count[p]) + " times");
        }
      }
    }
  }
}

void run_checking_tokens(net::EventLoop& loop, Time duration,
                         const RingTable& rings, const ViolationFn& violation) {
  const Time end = loop.now() + duration;
  while (loop.now() < end) {
    loop.run_for(kStep);
    check_token_uniqueness(rings, "during chaos", loop.now(), violation);
  }
}

void settle_and_check_rings(net::EventLoop& loop, const RingTable& rings,
                            const std::vector<NodeId>& live, Time timeout,
                            Time token_hold,
                            const std::function<void()>& quiesce,
                            const LogFn& log_of, const ViolationFn& violation) {
  auto converged = [&] { return rings_converged(rings, live); };
  // Traffic still flows while the group settles.
  run_until_stable(loop, timeout, converged);
  check_membership(rings, live, violation);
  quiesce();
  loop.run_for(millis(300));  // drain in-flight messages
  // Token uniqueness in the quiescent group, sampled across several rounds.
  for (int i = 0; i < 40; ++i) {
    check_token_uniqueness(rings, "quiescent", loop.now(), violation);
    loop.run_for(token_hold / 2 + micros(500));
  }
  check_counter_order(rings, log_of, violation);
  // The quiesce and the sampling give a late removal one more chance to
  // land: re-verify stability before the final batch.
  run_until_stable(loop, timeout, converged);
}

}  // namespace raincore::testing
