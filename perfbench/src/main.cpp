// Raincore benchmark: one command, three workloads, every output checked.
//
//   perfbench --workload <udp-small|udp-journal-1k|kv-sim> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>] [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans and per-layer figures. The last stdout line is the
// JSON result; the exit code is 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <filesystem>
#include <string>

#include "common/log.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <udp-small|udp-journal-1k|kv-sim> "
               "--seed <n> --seconds <1..60> --trace <0|1> [--workdir <dir>] "
               "[--trace-dir <dir>]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.workdir = "perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed" && parse_u64(val, n)) {
      args.seed = n;
    } else if (key == "--seconds" && parse_u64(val, n) && n >= 1 && n <= 60) {
      args.seconds = static_cast<int>(n);
    } else if (key == "--trace" && parse_u64(val, n) && n <= 1) {
      args.trace = n == 1;
    } else if (key == "--workdir") {
      args.workdir = val;
    } else if (key == "--trace-dir") {
      args.trace_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();
  const bool udp =
      args.workload == "udp-small" || args.workload == "udp-journal-1k";
  if (!udp && args.workload != "kv-sim") return usage();

  // The kv-sim cable pull makes the protocol warn on every repetition.
  raincore::set_log_level(raincore::LogLevel::kError);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (!args.trace_dir.empty()) {
    std::filesystem::create_directories(args.trace_dir, ec);
  }
  std::printf("raincore perfbench: workload %s, seed %llu, %d s, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  perfbench::Report rep(args.workload);
  if (udp) {
    perfbench::run_udp(args, rep);
  } else {
    perfbench::run_kv_sim(args, rep);
  }
  return rep.finish(args.trace);
}
