// E8 — engineering micro-benchmarks (google-benchmark): serialization,
// simulator event throughput, transport round trips, and a full token-ring
// protocol cycle. These quantify the substrate itself, making the sim-based
// numbers in E1–E7 interpretable.
//
// --json=PATH additionally emits the runs as a raincore.bench.v1 document
// (one result row per benchmark run) via a collecting reporter.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "common/crc32c.h"
#include "session/token.h"
#include "storage/wal.h"
#include "transport/transport.h"

using namespace raincore;

namespace {

void BM_TokenSerialize(benchmark::State& state) {
  session::Token t;
  t.lineage = 42;
  t.seq = 12345;
  t.view_id = 7;
  for (NodeId i = 1; i <= 8; ++i) t.ring.push_back(i);
  for (int i = 0; i < state.range(0); ++i) {
    session::AttachedMessage m;
    m.origin = 1 + (i % 8);
    m.seq = i;
    m.payload = Slice::copy(Bytes(128, 0xcd));
    t.batches.push_back(session::AttachedBatch::single(m));
  }
  for (auto _ : state) {
    Slice b = t.encode();
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenSerialize)->Arg(0)->Arg(16)->Arg(128);

void BM_TokenDeserialize(benchmark::State& state) {
  session::Token t;
  t.lineage = 42;
  for (NodeId i = 1; i <= 8; ++i) t.ring.push_back(i);
  for (int i = 0; i < state.range(0); ++i) {
    session::AttachedMessage m;
    m.origin = 1;
    m.seq = i;
    m.payload = Slice::copy(Bytes(128, 0xcd));
    t.batches.push_back(session::AttachedBatch::single(m));
  }
  Slice b = t.encode();
  for (auto _ : state) {
    ByteReader r(b);
    session::Token out;
    bool ok = session::Token::deserialize(r, out);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenDeserialize)->Arg(0)->Arg(16)->Arg(128);

void BM_EventLoopSchedule(benchmark::State& state) {
  net::EventLoop loop;
  for (auto _ : state) {
    loop.schedule(1000, [] {});
    loop.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopSchedule);

void BM_SimNetworkDatagram(benchmark::State& state) {
  net::SimNetwork net;
  auto& a = net.add_node(1);
  net.add_node(2).set_receiver([](net::Datagram&&) {});
  Bytes payload(state.range(0), 0xee);
  for (auto _ : state) {
    a.send(net::Address{2, 0}, payload, 0);
    net.loop().run_for(micros(200));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimNetworkDatagram)->Arg(64)->Arg(1024);

void BM_TransportRoundTrip(benchmark::State& state) {
  net::SimNetwork net;
  auto& e1 = net.add_node(1);
  auto& e2 = net.add_node(2);
  transport::ReliableTransport t1(e1), t2(e2);
  t2.set_message_handler([](NodeId, Slice) {});
  for (auto _ : state) {
    bool done = false;
    t1.send(2, Bytes(64, 0x11),
            [&](transport::TransferId, NodeId) { done = true; });
    while (!done) net.loop().step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportRoundTrip);

/// The transport's frame checksum over one N-byte frame, on each path of
/// crc32c(): the SSE4.2 `crc32` instruction and the portable slice-by-8
/// table. fnv1a is the WAL's record checksum, which framed the transport
/// before CRC32C, for scale. 16 KiB is about a loaded udp-small token hop.
using ChecksumFn = std::uint32_t (*)(const std::uint8_t*, std::size_t);
void BM_FrameChecksum(benchmark::State& state, ChecksumFn fn, bool hw) {
  if (hw && !crc32c_hw_available()) {
    state.SkipWithError("no SSE4.2 crc32 on this CPU");
    return;
  }
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  Bytes frame(static_cast<std::size_t>(state.range(0)));
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.data());
    std::uint32_t sum = fn(frame.data(), frame.size());
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_FrameChecksum, sse42, crc32c_hw, true)
    ->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK_CAPTURE(BM_FrameChecksum, portable, crc32c_portable, false)
    ->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK_CAPTURE(BM_FrameChecksum, fnv1a, storage::Wal::fnv1a, false)
    ->Arg(64)->Arg(1024)->Arg(16384);

void BM_TokenRingFullRotation(benchmark::State& state) {
  const std::size_t n = state.range(0);
  session::SessionConfig scfg;
  scfg.token_hold = 0;  // rotate as fast as the wire allows
  bench::GcCluster c(bench::Stack::kRaincore, n, scfg);
  c.start();
  c.run(seconds(1));
  std::uint64_t before = c.session(1).stats().tokens_received.value();
  for (auto _ : state) {
    std::uint64_t target = before + 1;
    while (c.session(1).stats().tokens_received.value() < target) {
      c.net().loop().step();
    }
    before = target;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenRingFullRotation)->Arg(2)->Arg(8)->Arg(32);

/// Wire-buffer cost of the steady-state token hot path: allocations and
/// payload copies charged to wire_stats() per token hop, on a ring of N
/// with one 128-byte multicast submitted per rotation. The per-hop figures
/// land in the JSON rows as user counters — the perf trail that the
/// zero-copy acceptance criterion diffs across PRs.
void BM_TokenHopWire(benchmark::State& state) {
  const std::size_t n = state.range(0);
  session::SessionConfig scfg;
  scfg.token_hold = 0;  // rotate as fast as the wire allows
  bench::GcCluster c(bench::Stack::kRaincore, n, scfg);
  c.start();
  c.run(seconds(1));
  auto hops = [&c] {
    std::uint64_t total = 0;
    for (NodeId id : c.ids()) {
      total += c.session(id).stats().tokens_passed.value();
    }
    return total;
  };
  WireStats& ws = wire_stats();
  const std::uint64_t hops0 = hops();
  const std::uint64_t allocs0 = ws.allocs.value();
  const std::uint64_t copies0 = ws.copies.value();
  const std::uint64_t bytes0 = ws.bytes_copied.value();
  for (auto _ : state) {
    c.multicast(1, 128);
    const std::uint64_t target = hops() + n;  // one full rotation
    while (hops() < target) c.net().loop().step();
  }
  const double dh = static_cast<double>(hops() - hops0);
  state.counters["wire_allocs_per_hop"] =
      static_cast<double>(ws.allocs.value() - allocs0) / dh;
  state.counters["wire_copies_per_hop"] =
      static_cast<double>(ws.copies.value() - copies0) / dh;
  state.counters["wire_bytes_copied_per_hop"] =
      static_cast<double>(ws.bytes_copied.value() - bytes0) / dh;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenHopWire)->Arg(4)->Arg(8);

/// Console reporter that also captures every finished run so the main below
/// can re-emit them in the raincore.bench.v1 schema (google-benchmark's own
/// JSON has a different shape; downstream tooling only speaks ours). Wraps
/// the display reporter rather than acting as gbench's "file reporter",
/// which would demand --benchmark_out.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(bench::JsonReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      JsonValue row = bench::JsonReport::row(run.benchmark_name());
      row.set("iterations",
              JsonValue::number(static_cast<double>(run.iterations)));
      row.set("real_time_s", JsonValue::number(run.real_accumulated_time));
      row.set("cpu_time_s", JsonValue::number(run.cpu_accumulated_time));
      for (const auto& [name, counter] : run.counters) {
        row.set(name, JsonValue::number(counter.value));
      }
      report_.add(std::move(row));
    }
  }

 private:
  bench::JsonReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::json_path_from_args(argc, argv);
  // Strip our flag before google-benchmark sees it (it rejects unknowns).
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--json=", 0) != 0) argv[kept++] = argv[i];
  }
  argc = kept;

  bench::JsonReport report("bench_micro");
  CollectingReporter collector(report);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  bench::maybe_write_report(report, json_path);
  return 0;
}
