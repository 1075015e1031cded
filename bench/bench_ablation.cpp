// E7 — ablations of the design choices DESIGN.md calls out.
//
//  (a) Token hold interval: the CPU-vs-latency dial of §2.2 ("a TOKEN is a
//      message that is being passed at a regular time interval"). Shorter
//      holds cut delivery latency but wake the CPU more often.
//  (b) Piggybacking: what the token buys. Compared against the cheapest
//      broadcast alternative at equal delivered-message throughput.
//  (c) Transport multi-address strategy (§2.1): sequential vs parallel
//      redundant-link probing, under a primary-link failure.
#include <cstdio>

#include "bench/util/gc_harness.h"
#include "transport/transport.h"

using namespace raincore;
using namespace raincore::bench;

namespace {

void ablation_hold_interval() {
  std::printf("\n(a) Token hold interval (N=4, M=50 msg/s/node, 5 s)\n");
  std::printf("%12s | %14s %12s %12s\n", "hold", "ts/node/s", "p50 lat ms",
              "pkts/s");
  std::printf("---------------------------------------------------------\n");
  for (Time hold : {millis(1), millis(2), millis(5), millis(10), millis(20),
                    millis(50)}) {
    session::SessionConfig scfg;
    scfg.token_hold = hold;
    GcCluster c(Stack::kRaincore, 4, scfg);
    c.start();
    c.run(seconds(1));
    c.reset_metrics();
    Time end = c.net().now() + seconds(5);
    Time next = c.net().now();
    int i = 0;
    while (c.net().now() < end) {
      c.run(millis(5));
      while (next <= c.net().now()) {
        c.multicast(1 + (i++ % 4), 64);
        next += millis(5);  // 4 nodes * 50/s = 200/s aggregate
      }
    }
    c.run(seconds(1));
    auto tot = c.net().totals();
    std::printf("%9lld ms | %14.1f %12.2f %12.0f\n",
                static_cast<long long>(hold / kNanosPerMilli),
                c.mean_task_switches() / 5.0, c.latency().percentile(0.5) / 1e6,
                static_cast<double>(tot.pkts_sent.value()) / 5.0);
  }
}

void ablation_piggyback() {
  std::printf("\n(b) Piggybacked token multicast vs per-message broadcast\n");
  std::printf("    (N=8, 100 msg/s aggregate of 256 B, 5 s; equal delivery)\n");
  std::printf("%-16s | %12s %12s %14s\n", "design", "pkts/s", "KiB/s",
              "ts/node/s");
  std::printf("-----------------------------------------------------------\n");
  for (Stack s : {Stack::kRaincore, Stack::kBroadcast}) {
    session::SessionConfig scfg;
    scfg.token_hold = millis(5);
    GcCluster c(s, 8, scfg);
    c.start();
    c.run(seconds(1));
    c.reset_metrics();
    Time end = c.net().now() + seconds(5);
    Time next = c.net().now();
    int i = 0;
    while (c.net().now() < end) {
      c.run(millis(5));
      while (next <= c.net().now()) {
        c.multicast(1 + (i++ % 8), 256);
        next += millis(10);
      }
    }
    c.run(seconds(1));
    auto tot = c.net().totals();
    std::printf("%-16s | %12.0f %12.1f %14.1f\n",
                s == Stack::kRaincore ? "piggyback-token" : "per-msg-bcast",
                static_cast<double>(tot.pkts_sent.value()) / 5.0,
                static_cast<double>(tot.bytes_sent.value()) / 5.0 / 1024.0,
                c.mean_task_switches() / 5.0);
  }
}

void ablation_transport_strategy() {
  std::printf("\n(c) Redundant links (2 ifaces): time for a reliable send to\n");
  std::printf("    succeed when the primary link is dead (RTO 50 ms, 3/addr)\n");
  std::printf("%-12s | %16s %16s\n", "strategy", "delivery (ms)",
              "packets used");
  std::printf("--------------------------------------------------\n");
  for (auto strategy :
       {transport::SendStrategy::kSequential, transport::SendStrategy::kParallel}) {
    net::SimNetwork net;
    auto& env1 = net.add_node(1, 2);
    auto& env2 = net.add_node(2, 2);
    transport::TransportConfig tcfg;
    tcfg.strategy = strategy;
    transport::ReliableTransport t1(env1, tcfg), t2(env2, tcfg);
    t2.set_message_handler([](NodeId, Slice) {});
    // Kill the primary (iface-0) path in both directions.
    net.set_link_up(net::Address{1, 0}, net::Address{2, 0}, false);

    Time delivered_at = -1;
    Time t0 = net.now();
    t1.send(2, Bytes{1, 2, 3},
            [&](transport::TransferId, NodeId) { delivered_at = net.now(); });
    net.loop().run_for(seconds(2));
    auto tot = net.totals();
    std::printf("%-12s | %16.1f %16llu\n",
                strategy == transport::SendStrategy::kSequential ? "sequential"
                                                                 : "parallel",
                delivered_at >= 0 ? to_millis(delivered_at - t0) : -1.0,
                static_cast<unsigned long long>(tot.pkts_sent.value()));
  }
}

}  // namespace

int main() {
  print_banner("Raincore bench E7: design-choice ablations",
               "IPPS'01 paper §2.1/§2.2 design decisions");
  ablation_hold_interval();
  ablation_piggyback();
  ablation_transport_strategy();
  std::printf("\nExpected shape: (a) latency ~ N*hold/2, wake-ups ~ 2/(N*hold);\n");
  std::printf("(b) piggybacking needs ~1/(N-1) of the packets at equal load;\n");
  std::printf("(c) parallel probing delivers immediately over the surviving\n");
  std::printf("link at the cost of duplicate packets, sequential waits out the\n");
  std::printf("primary address's RTO budget first.\n");
  return 0;
}
