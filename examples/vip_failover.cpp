// Virtual IP fail-over (paper §3.1): a pool of virtual IPs stays available
// through node failures. VIPs are mutually exclusively assigned; when their
// owner dies they move to survivors and gratuitous ARPs repoint the subnet.
//
// Run: ./vip_failover
#include <cstdio>
#include <map>
#include <memory>

#include "apps/vip/vip_manager.h"
#include "net/sim_network.h"
#include "session/session_mux.h"

using namespace raincore;
using namespace raincore::apps;

namespace {

void print_assignment(Subnet& subnet, const std::vector<std::string>& pool) {
  for (const auto& vip : pool) {
    auto owner = subnet.resolve(vip);
    std::printf("  %-10s -> %s\n", vip.c_str(),
                owner ? ("node " + std::to_string(*owner)).c_str() : "(nobody)");
  }
}

}  // namespace

int main() {
  const std::vector<std::string> pool = {"10.0.0.1", "10.0.0.2", "10.0.0.3",
                                         "10.0.0.4", "10.0.0.5", "10.0.0.6"};
  net::SimNetwork net;
  Subnet subnet;
  subnet.set_reachability([&net](NodeId id) { return net.node_up(id); });

  session::SessionConfig scfg;
  scfg.eligible = {1, 2, 3};

  struct Member {
    std::unique_ptr<session::SessionMux> node;  // transport + one ring
    session::SessionNode* session = nullptr;
    std::unique_ptr<data::ChannelMux> mux;
    std::unique_ptr<VipManager> vips;
  };
  std::map<NodeId, Member> members;
  for (NodeId id = 1; id <= 3; ++id) {
    auto& env = net.add_node(id);
    Member m;
    m.node = std::make_unique<session::SessionMux>(env);
    m.session = &m.node->create_ring(0, scfg);
    m.mux = std::make_unique<data::ChannelMux>(*m.session);
    m.vips = std::make_unique<VipManager>(*m.mux, subnet, VipConfig{pool, 100});
    m.vips->set_gain_handler([id](const std::string& vip) {
      std::printf("  node %u GAINED %s (gratuitous ARP sent)\n", id, vip.c_str());
    });
    m.vips->set_loss_handler([id](const std::string& vip) {
      std::printf("  node %u lost %s\n", id, vip.c_str());
    });
    members[id] = std::move(m);
  }

  std::printf("== cluster of 3 boots; 6 VIPs spread 2/2/2 ==\n");
  members[1].session->found();
  members[2].session->join({1});
  members[3].session->join({1});
  net.loop().run_for(seconds(3));
  print_assignment(subnet, pool);

  std::printf("\n== node 2's cable is pulled ==\n");
  net.set_node_up(2, false);
  members[2].session->stop();
  net.loop().run_for(seconds(3));
  print_assignment(subnet, pool);

  std::printf("\n== node 3 also dies; node 1 serves everything ==\n");
  net.set_node_up(3, false);
  members[3].session->stop();
  net.loop().run_for(seconds(3));
  print_assignment(subnet, pool);

  std::printf("\n== node 2 returns and rejoins; the pool rebalances ==\n");
  net.set_node_up(2, true);
  members[2].session->join({1});
  net.loop().run_for(seconds(4));
  print_assignment(subnet, pool);

  std::printf("\n\"While physical machines can go down, the virtual IPs never\n");
  std::printf("disappear as long as at least one physical node is functional.\"\n");
  std::printf("(%llu gratuitous ARPs sent in total)\n",
              static_cast<unsigned long long>(subnet.gratuitous_arps().value()));
  return 0;
}
