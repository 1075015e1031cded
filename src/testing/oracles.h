// Ring invariant checkers shared by the simulated cluster harnesses.
//
// The session service promises three things of every ring: at most one
// token holder among nodes that share a view (§2.2), one agreed membership
// once the network is quiet (§2.5), and gap-free multicast delivered in
// one agreed order (§2.6). ChaosCluster, MultiRingChaosCluster,
// DurabilityChaosCluster and testing::Cluster check them, and wait for
// them, through this one module.
//
// A harness describes its rings as a RingTable (ring k of every node runs
// on demux group k), lends its delivery logs through a LogFn, and collects
// violation texts through a ViolationFn. The checkers only observe. The
// event loop runs only in the waits, the final batch and the two chaos
// phase helpers at the end; every wait checks its condition, then steps
// the loop 10 ms, and repeats.
//
// A violation names a ring ("node 3 ring 1") only when nodes run more than
// one ring, so a one-ring harness reads "node 3".
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "session/session_node.h"

namespace raincore::testing {

/// Ring k of each node, keyed by node; ring k runs on demux group k.
using RingTable = std::map<NodeId, std::vector<session::SessionNode*>>;

/// One delivery as a harness logged it.
struct Delivered {
  std::uint64_t recv_epoch;  ///< the receiver's incarnation at delivery
  NodeId origin;
  std::string payload;
  session::Ordering ordering = session::Ordering::kAgreed;
};

/// The delivery log of one node's ring.
using LogFn =
    std::function<const std::vector<Delivered>&(NodeId, std::size_t ring)>;
/// Receives one violation text.
using ViolationFn = std::function<void(std::string)>;

/// Runs `loop` until `done()` holds, checking before every `step`; false
/// once `timeout` has passed (no check is made at the deadline).
bool run_until(net::EventLoop& loop, Time timeout,
               const std::function<bool()>& done, Time step = millis(10));

/// Like run_until, but returns true only once `holds()` has been true at
/// every check for 300 ms; a false check restarts the window.
bool run_until_stable(net::EventLoop& loop, Time timeout,
                      const std::function<bool()>& holds);

/// True iff every ring of every node in `live` has started and its view
/// holds exactly `live` (in any ring order). Other nodes are not consulted.
bool rings_converged(const RingTable& rings, const std::vector<NodeId>& live);

/// Token uniqueness (§2.2): two started nodes holding ring k's token with
/// identical views. Nodes whose groups have not merged yet may each hold a
/// token (§2.4 strategy 2), so only identical views are judged.
void check_token_uniqueness(const RingTable& rings, const char* when,
                            Time now, const ViolationFn& violation);

/// Membership (§2.5): every ring of every node in `live` converged to
/// exactly `live`.
void check_membership(const RingTable& rings, const std::vector<NodeId>& live,
                      const ViolationFn& violation);

/// Chaos traffic order (§2.6) in one delivery log; `where` names the log in
/// violations ("node 3"). Chaos payloads read "c:<origin>:<origin
/// epoch>:<counter>"; other payloads are skipped. Per receiver incarnation
/// and origin incarnation, counters must strictly increase and the payload
/// must name the origin it was delivered from. Gaps are legitimate:
/// partitions and removals drop messages.
void check_counter_order(const std::vector<Delivered>& log,
                         const std::string& where, const ViolationFn& violation);
/// The same check over every ring of every node in the table.
void check_counter_order(const RingTable& rings, const LogFn& log_of,
                         const ViolationFn& violation);

/// The harness's share of the post-heal final batch.
struct FinalBatch {
  int per_node = 0;    ///< messages each live node sends on each ring
  Time timeout = 0;    ///< how long the batch may take to arrive
  /// Multicasts one payload from a node on a ring.
  std::function<void(NodeId, std::size_t ring, const std::string& payload)>
      send;
};

/// Post-heal agreed delivery (§2.6): every live node sends `per_node` fresh
/// messages on every ring ("f:<node>:<k>", or "f:<node>:<ring>:<k>" when
/// nodes run several rings), in node, ring, message order. Then the loop
/// runs until every live node has them all or `timeout` passes, and each
/// ring's batch must have arrived complete, exactly once, and in the same
/// order on every live node.
void check_final_batch(net::EventLoop& loop, const RingTable& rings,
                       const std::vector<NodeId>& live,
                       const FinalBatch& batch, const LogFn& log_of,
                       const ViolationFn& violation);

/// The chaos phase's ring check: runs `loop` for `duration` in 10 ms steps
/// and checks token uniqueness after each step.
void run_checking_tokens(net::EventLoop& loop, Time duration,
                         const RingTable& rings, const ViolationFn& violation);

/// The quiescent ring checks of a chaos round, once its faults are healed.
/// Waits (up to `timeout`) for every ring of every live node to hold the
/// live set for 300 ms, checks membership, calls `quiesce` to stop the
/// traffic, drains for 300 ms, samples token uniqueness 40 times half a
/// `token_hold` apart, checks the chaos counters, and waits for stability
/// once more, so the final batch runs on a settled group.
void settle_and_check_rings(net::EventLoop& loop, const RingTable& rings,
                            const std::vector<NodeId>& live, Time timeout,
                            Time token_hold,
                            const std::function<void()>& quiesce,
                            const LogFn& log_of, const ViolationFn& violation);

}  // namespace raincore::testing
