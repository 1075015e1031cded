// Quickstart: form a Raincore group of five nodes on the simulated network,
// multicast state updates with agreed ordering, watch membership react to a
// failure, and use the token master-lock for mutual exclusion.
//
// Run: ./quickstart
#include <cstdio>
#include <map>
#include <memory>

#include "net/sim_network.h"
#include "session/session_mux.h"

using namespace raincore;

int main() {
  // 1. A simulated switched LAN (unicast only — Raincore's design
  //    assumption) and five session nodes. Each node is a SessionMux (its
  //    transport) carrying one ring on demux group 0.
  net::SimNetwork net;
  session::SessionConfig cfg;
  cfg.eligible = {1, 2, 3, 4, 5};

  std::map<NodeId, std::unique_ptr<session::SessionMux>> muxes;
  std::map<NodeId, session::SessionNode*> nodes;
  for (NodeId id = 1; id <= 5; ++id) {
    muxes[id] =
        std::make_unique<session::SessionMux>(net.add_node(id), cfg.transport);
    nodes[id] = &muxes[id]->create_ring(0, cfg);
    nodes[id]->set_deliver_handler(
        [id](NodeId origin, const Slice& payload, session::Ordering) {
          std::printf("  node %u delivered from %u: %.*s\n", id, origin,
                      static_cast<int>(payload.size()), payload.data());
        });
    nodes[id]->set_view_handler([id](const session::View& v) {
      std::printf("  node %u view #%llu:", id,
                  static_cast<unsigned long long>(v.view_id));
      for (NodeId m : v.members) std::printf(" %u", m);
      std::printf("\n");
    });
  }

  // 2. Node 1 founds the group; the others join through it (the 911 join
  //    protocol, §2.3).
  std::printf("== bootstrap ==\n");
  nodes[1]->found();
  for (NodeId id = 2; id <= 5; ++id) nodes[id]->join({1});
  net.loop().run_for(seconds(2));

  // 3. Reliable multicast with agreed (total) ordering: every node sees the
  //    same delivery sequence, carried by the circulating token (§2.6).
  std::printf("== multicast ==\n");
  auto send = [&](NodeId from, const char* text) {
    std::string s = text;
    nodes[from]->multicast(Bytes(s.begin(), s.end()));
  };
  send(2, "hello from 2");
  send(5, "hello from 5");
  net.loop().run_for(seconds(1));

  // 4. Mutual exclusion (§2.7): the callback runs while this node holds the
  //    token — no other node can be in its exclusive section.
  std::printf("== mutual exclusion ==\n");
  nodes[3]->run_exclusive(
      [] { std::printf("  node 3 runs exclusively (EATING)\n"); });
  net.loop().run_for(seconds(1));

  // 5. Fail a node: the aggressive failure detector removes it within a
  //    token interval; the membership shrinks everywhere.
  std::printf("== failing node 4 ==\n");
  net.set_node_up(4, false);
  nodes[4]->stop();
  net.loop().run_for(seconds(2));

  // 6. The group still works.
  std::printf("== multicast after failure ==\n");
  send(1, "still alive");
  net.loop().run_for(seconds(1));

  std::printf("done; node 1 saw %llu token roundtrips\n",
              static_cast<unsigned long long>(
                  nodes[1]->stats().tokens_received.value()));
  return 0;
}
