// E15 — the threaded runtime on real kernel UDP: the process-mode
// counterpart of bench_shard's K=4 batched row, measured in wall-clock
// time instead of virtual time.
//
// Four ThreadedNodes run in one process exactly as four raincored
// processes would on one host: each owns a kernel UDP socket on loopback,
// an epoll I/O thread with the shared reliable transport, and one worker
// thread per shard ring (K=4), with SPSC Slice handoff between them
// (DESIGN.md §5i). Producers on every worker inject 64-byte messages
// through try_multicast on an open-loop schedule whose due times are
// computed from the burst index, and the run prints the offered load it
// achieved against the nominal one; the delivery handlers (also on worker
// threads) count window sends and record due→agreed-delivery latency
// against the shared steady clock.
//
// Methodology mirrors bench_shard: only messages SENT inside the measured
// window count, producers stop at window close, and the run drains until
// progress stops; throughput divides window sends by open→last-delivery.
//
// Exit gates (wall clock on whatever machine runs it — CI uses one core):
//   - aggregate throughput ≥ 2× the committed single-threaded sim-mode
//     K=4 baseline (BENCH_PR8_shard.json: 94 897 msgs/s);
//   - p95 latency equal-or-better than that baseline's 40.3 ms.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "common/clock.h"
#include "runtime/threaded_node.h"

using namespace raincore;
using raincore::bench::print_banner;

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kShards = 4;
const Time kTokenHold = millis(2);
const Time kInjectEvery = millis(1);
constexpr int kBurst = 20;  // msgs per ring per tick per node
const Time kWarmup = seconds(1);
const Time kWindow = seconds(4);

// Committed single-threaded sim baseline (BENCH_PR8_shard.json,
// shards-batched-4) this run must double at equal-or-better p95.
constexpr double kPr8ThroughputMsgsPerS = 94897.1;
constexpr double kPr8P95Ms = 40.3;

void sleep_for(Time d) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

}  // namespace

int main(int argc, char** argv) {
  print_banner("Raincore bench E15: threaded runtime over kernel UDP",
               "4 nodes x 4 shard rings, epoll + worker threads, loopback");

  RealClock clock;

  runtime::ThreadedNodeConfig base;
  base.shards = kShards;
  base.ring.token_hold = kTokenHold;
  // UDP wire budget: an attached batch rides the token for one full
  // rotation, so a frame can carry ring_size visits' worth of payload.
  // 4 nodes x 14 KiB stays under the 65507-byte datagram ceiling (the sim
  // has no MTU; PR8's 256 KiB visit cap would silently black-hole tokens
  // here). The short bounded queue turns saturation into early refusals
  // instead of seconds of queue wait.
  base.ring.max_batch_msgs = 200;
  base.ring.max_batch_bytes = 14 << 10;
  base.ring.max_queue_msgs = 256;
  for (NodeId id = 1; id <= kNodes; ++id) base.ring.eligible.push_back(id);

  std::vector<std::unique_ptr<runtime::ThreadedNode>> nodes;
  for (NodeId id = 1; id <= kNodes; ++id) {
    runtime::ThreadedNodeConfig cfg = base;
    cfg.node = id;
    nodes.push_back(std::make_unique<runtime::ThreadedNode>(cfg));
  }
  // Ephemeral ports, discovered and cross-registered before any thread
  // starts — the same AddressBook path raincored fills from its config.
  for (auto& a : nodes) {
    for (auto& b : nodes) {
      if (a->node() == b->node()) continue;
      a->add_peer(b->node(), 0, "127.0.0.1", b->port(0));
    }
  }

  std::atomic<Time> window_open{-1};
  std::atomic<Time> last_counted{-1};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<bool> producing{true};
  Histogram latency;

  for (auto& n : nodes) {
    for (std::size_t k = 0; k < kShards; ++k) {
      n->ring_unsafe(k).set_deliver_handler(
          [&](NodeId, const Slice& p, session::Ordering) {
            const Time wo = window_open.load(std::memory_order_relaxed);
            if (wo < 0 || p.size() < 8) return;
            ByteReader r(p);
            const Time sent = static_cast<Time>(r.u64());
            if (sent < wo) return;  // warm-up send: not measured
            const Time now = clock.now();
            delivered.fetch_add(1, std::memory_order_relaxed);
            last_counted.store(now, std::memory_order_relaxed);
            latency.record_time(now - sent);
          });
    }
  }

  for (auto& n : nodes) n->start();
  for (auto& n : nodes) n->found_all();

  std::printf("\nforming %zu rings across %zu nodes over loopback UDP..\n",
              kShards, kNodes);
  bool converged = false;
  for (int i = 0; i < 600 && !converged; ++i) {
    sleep_for(millis(100));
    converged = true;
    for (auto& n : nodes) converged = converged && n->all_converged(kNodes);
  }
  if (!converged) {
    std::fprintf(stderr, "FAIL: rings did not converge\n");
    return 1;
  }

  // Producers: one ticker per (node, ring) on its worker's loop. Burst i
  // of every source is due at t0 + i * kInjectEvery — computed from its
  // index, never re-armed from the previous (late) firing — and each wake
  // sends every burst already due, so a slow loop makes bursts late
  // instead of silently lowering the offered load. Ticker objects are
  // owned here (not by their closures).
  const Time t0 = clock.now() + millis(10);
  struct Ticker {
    std::function<void()> fn;
    std::uint64_t next = 0;  ///< index of the next burst due
  };
  auto due_of = [t0](std::uint64_t i) {
    return t0 + static_cast<Time>(i) * kInjectEvery;
  };
  std::atomic<std::uint64_t> attempted{0};
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (auto& n : nodes) {
    for (std::size_t k = 0; k < kShards; ++k) {
      auto tick = std::make_unique<Ticker>();
      Ticker* self = tick.get();
      n->post_to_shard(k, [self, t0, due_of, &clock, &producing, &refused,
                           &attempted](session::SessionNode& r) {
        self->fn = [self, due_of, &clock, &producing, &refused, &attempted,
                    &r] {
          if (!producing.load(std::memory_order_relaxed)) return;
          const Time now = clock.now();
          for (; due_of(self->next) <= now; ++self->next) {
            for (int b = 0; b < kBurst; ++b) {
              // Stamped with the due time: latency includes any lateness.
              ByteWriter w(64);
              w.u64(static_cast<std::uint64_t>(due_of(self->next)));
              for (std::size_t pad = w.size(); pad < 64; ++pad) w.u8(0);
              attempted.fetch_add(1, std::memory_order_relaxed);
              if (!r.try_multicast(w.take()).has_value()) {
                refused.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          r.env().schedule(std::max<Time>(due_of(self->next) - clock.now(), 0),
                           self->fn);
        };
        r.env().schedule(std::max<Time>(t0 - clock.now(), 0), self->fn);
      });
      tickers.push_back(std::move(tick));
    }
  }

  const double offered = static_cast<double>(kBurst) * kShards * kNodes *
                         (static_cast<double>(kNanosPerSec) / kInjectEvery);
  std::printf("nominal offered load: %.0f msgs/s aggregate, 64 B payloads, "
              "try_multicast-paced\n",
              offered);

  sleep_for(kWarmup);
  window_open.store(clock.now(), std::memory_order_relaxed);
  const std::uint64_t attempted_at_open =
      attempted.load(std::memory_order_relaxed);
  sleep_for(kWindow);
  producing.store(false, std::memory_order_relaxed);
  const Time open = window_open.load(std::memory_order_relaxed);
  const double achieved_offered =
      static_cast<double>(attempted.load(std::memory_order_relaxed) -
                          attempted_at_open) /
      to_seconds(clock.now() - open);

  // Drain until the window's sends stop arriving.
  std::uint64_t total = delivered.load(std::memory_order_relaxed);
  for (int step = 0; step < 100; ++step) {
    sleep_for(millis(200));
    const std::uint64_t now_total = delivered.load(std::memory_order_relaxed);
    if (now_total == total && step > 2) break;
    total = now_total;
  }
  total = delivered.load(std::memory_order_relaxed);
  const Time last = last_counted.load(std::memory_order_relaxed);
  const Time elapsed = (last > open ? last : clock.now()) - open;
  window_open.store(-1, std::memory_order_relaxed);

  metrics::Snapshot node1 = nodes[0]->metrics_snapshot();
  for (auto& n : nodes) n->stop();

  // Every message is delivered at all nodes; divide handler invocations by
  // kNodes to get back to messages.
  const double throughput =
      static_cast<double>(total) / kNodes / to_seconds(elapsed);
  const double p50_ms = latency.percentile(0.5) / 1e6;
  const double p95_ms = latency.percentile(0.95) / 1e6;
  const double gain = throughput / kPr8ThroughputMsgsPerS;

  std::printf("\noffered in the window: %.0f msgs/s achieved vs %.0f nominal "
              "(%.3f)\n",
              achieved_offered, offered, achieved_offered / offered);
  std::printf("\n%14s %10s %10s %12s %10s\n", "agg msgs/s", "p50 (ms)",
              "p95 (ms)", "deliveries", "refused");
  std::printf("%14.0f %10.1f %10.1f %12llu %10llu\n", throughput, p50_ms,
              p95_ms, static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(
                  refused.load(std::memory_order_relaxed)));
  std::printf("\nvs committed sim-mode K=4 baseline (%.0f msgs/s, p95 %.1f "
              "ms): %.2fx throughput (floor: 2x), p95 %.1f ms\n",
              kPr8ThroughputMsgsPerS, kPr8P95Ms, gain, p95_ms);

  bench::JsonReport report("runtime");
  report.param("nodes", static_cast<double>(kNodes));
  report.param("shards", static_cast<double>(kShards));
  report.param("token_hold_ms",
               static_cast<double>(kTokenHold / kNanosPerMilli));
  report.param("max_batch_msgs", 200.0);
  report.param("offered_msgs_per_s", offered);
  report.param("achieved_offered_msgs_per_s", achieved_offered);
  report.param("window_s", to_seconds(kWindow));
  report.param("mode", "threads+kernel-udp");
  JsonValue row = bench::JsonReport::row("threaded-4x4");
  row.set("throughput_msgs_per_s", JsonValue::number(throughput));
  row.set("p50_ms", JsonValue::number(p50_ms));
  row.set("p95_ms", JsonValue::number(p95_ms));
  row.set("delivered", JsonValue::number(static_cast<double>(total)));
  row.set("refused",
          JsonValue::number(static_cast<double>(
              refused.load(std::memory_order_relaxed))));
  report.add(std::move(row));
  JsonValue cmp = bench::JsonReport::row("gain-vs-pr8-sim");
  cmp.set("factor", JsonValue::number(gain));
  cmp.set("pr8_throughput_msgs_per_s",
          JsonValue::number(kPr8ThroughputMsgsPerS));
  cmp.set("pr8_p95_ms", JsonValue::number(kPr8P95Ms));
  cmp.set("threaded_p95_ms", JsonValue::number(p95_ms));
  report.add(std::move(cmp));
  report.set_metrics(node1);
  bench::maybe_write_report(report, bench::json_path_from_args(argc, argv));

  bool fail = false;
  if (gain < 2.0) {
    std::fprintf(stderr, "FAIL: %.2fx below the 2x floor\n", gain);
    fail = true;
  }
  if (p95_ms > kPr8P95Ms) {
    std::fprintf(stderr, "FAIL: p95 %.1f ms above the sim baseline %.1f ms\n",
                 p95_ms, kPr8P95Ms);
    fail = true;
  }
  return fail ? 1 : 0;
}
