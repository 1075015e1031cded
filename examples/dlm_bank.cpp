// Distributed lock manager demo (paper §2.7 / Distributed Data Service):
// three "bank branches" perform transfers between replicated accounts,
// serialising each transfer with named distributed locks so no update is
// ever lost — the paper's promise of developing distributed applications
// "with the ease of developing a multi-thread shared-memory application".
//
// Run: ./dlm_bank
#include <cstdio>
#include <map>
#include <memory>

#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "net/sim_network.h"
#include "session/session_mux.h"

using namespace raincore;
using namespace raincore::data;

namespace {

struct Branch {
  std::unique_ptr<session::SessionMux> node;  // transport + one ring
  session::SessionNode* session = nullptr;
  std::unique_ptr<ChannelMux> mux;
  std::unique_ptr<ReplicatedMap> accounts;
  std::unique_ptr<LockManager> locks;
};

int balance(ReplicatedMap& accounts, const std::string& acct) {
  auto v = accounts.get(acct);
  return v ? std::stoi(*v) : 0;
}

}  // namespace

int main() {
  net::SimNetwork net;
  session::SessionConfig scfg;
  scfg.eligible = {1, 2, 3};

  std::map<NodeId, Branch> branches;
  for (NodeId id = 1; id <= 3; ++id) {
    auto& env = net.add_node(id);
    Branch b;
    b.node = std::make_unique<session::SessionMux>(env, scfg.transport);
    b.session = &b.node->create_ring(0, scfg);
    b.mux = std::make_unique<ChannelMux>(*b.session);
    b.accounts = std::make_unique<ReplicatedMap>(*b.mux, 1);
    b.locks = std::make_unique<LockManager>(*b.mux, 2);
    branches[id] = std::move(b);
  }

  branches[1].session->found();
  branches[2].session->join({1});
  branches[3].session->join({1});
  net.loop().run_for(seconds(3));

  // Seed the accounts.
  branches[1].accounts->put("alice", "1000");
  branches[1].accounts->put("bob", "1000");
  net.loop().run_for(seconds(1));
  std::printf("start: alice=%d bob=%d (sum %d)\n",
              balance(*branches[1].accounts, "alice"),
              balance(*branches[1].accounts, "bob"),
              balance(*branches[1].accounts, "alice") +
                  balance(*branches[1].accounts, "bob"));

  // Every branch concurrently moves 10 units alice -> bob, 20 times each,
  // guarded by the distributed lock "transfer".
  int completed = 0;
  std::function<void(NodeId, int)> do_transfer = [&](NodeId id, int remaining) {
    if (remaining == 0) return;
    Branch& b = branches[id];
    b.locks->acquire("transfer", [&, id, remaining](const std::string&) {
      Branch& br = branches[id];
      int a = balance(*br.accounts, "alice");
      int bo = balance(*br.accounts, "bob");
      br.accounts->put("alice", std::to_string(a - 10));
      br.accounts->put("bob", std::to_string(bo + 10));
      // Release only after our writes are ordered: the release op follows
      // the puts in the same agreed stream, so the next holder reads them.
      br.locks->release("transfer");
      ++completed;
      do_transfer(id, remaining - 1);
    });
  };
  for (NodeId id = 1; id <= 3; ++id) do_transfer(id, 20);
  net.loop().run_for(seconds(30));

  std::printf("completed %d transfers of 10 from alice to bob\n", completed);
  for (NodeId id = 1; id <= 3; ++id) {
    Branch& b = branches[id];
    std::printf("branch %u sees: alice=%d bob=%d (sum %d)\n", id,
                balance(*b.accounts, "alice"), balance(*b.accounts, "bob"),
                balance(*b.accounts, "alice") + balance(*b.accounts, "bob"));
  }
  std::printf("expected: alice=%d bob=%d — no lost updates under contention\n",
              1000 - completed * 10, 1000 + completed * 10);
  return 0;
}
