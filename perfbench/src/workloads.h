// The benchmark's workloads. Each runs a 4-node cluster in this process,
// drives it through the program's public APIs, checks the outputs and
// fills a Report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL files (created and removed by the run).
  std::string workdir;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_dir;
};

/// udp-small / udp-journal-1k: runtime::ThreadedNode clusters over
/// loopback UDP, wall clock.
void run_udp(const RunArgs& args, Report& rep);

/// Virtual-time results of one kv-sim repetition, compared bit for bit
/// across repetitions of one seed.
struct KvSimVirtual {
  std::vector<double> put_ack_ns;    ///< sorted steady-window samples
  std::vector<double> lock_wait_ns;  ///< sorted steady-window samples
  double failover_gap_ns = 0;
  std::uint64_t counter_digest = 0;  ///< program counters + packet totals
  bool operator==(const KvSimVirtual&) const = default;
};

/// Scenario lengths in virtual time; the benchmark uses the defaults, the
/// self-test shortens them.
struct KvSimShape {
  std::int64_t warmup_ms = 500;
  std::int64_t steady_ms = 2000;
  std::int64_t failover_ms = 2000;
};

/// kv-sim: SessionMux + ShardedDataPlane nodes on net::SimNetwork, virtual
/// clock. run_kv_sim_once runs one untraced repetition (self-test);
/// run_kv_sim repeats the seed for --seconds and reports.
KvSimVirtual run_kv_sim_once(std::uint64_t seed, const KvSimShape& shape);
void run_kv_sim(const RunArgs& args, Report& rep);

}  // namespace perfbench
