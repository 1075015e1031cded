// raincored — one Raincore cluster member as a real OS process.
//
// Reads a JSON config (runtime/raincored_config.h), binds kernel UDP,
// spins up the threaded runtime (I/O thread + one worker per shard ring),
// founds its rings and lets BODYODOR discovery assemble the cluster. While
// running it heartbeats <storage_dir>/status.json (atomic rename) for the
// cluster harness to poll; on SIGTERM/SIGINT — or after --run-s seconds —
// it drains gracefully: every shard ring LEAVEs its group (survivors see a
// clean view shrink, no failure detection needed), the per-shard WALs under
// <storage_dir>/wal are flushed, a final metrics snapshot lands in
// <storage_dir>/metrics.json, and the process exits 0. kill -9 still needs
// no handling by design: the survivors' failure detection removes the
// corpse, and a restarted raincored re-founds singleton rings that merge
// back in through discovery.
//
// Usage: raincored <config.json> [--run-s N], N a finite number of seconds,
// zero or more. A malformed command line (a bad or missing N, an unknown
// flag, an extra argument) exits 2 before the config is read.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/json.h"
#include "runtime/raincored_config.h"

using namespace raincore;

namespace {

volatile std::sig_atomic_t g_stop = 0;

[[noreturn]] void reject(const std::string& why) {
  std::fprintf(stderr,
               "raincored: %s\nusage: raincored <config.json> [--run-s N]\n",
               why.c_str());
  std::exit(2);
}

void on_signal(int) { g_stop = 1; }

void write_atomically(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << content << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::string status_line(runtime::ThreadedNode& node) {
  JsonValue doc = JsonValue::object();
  doc.set("node", JsonValue::number(node.node()));
  doc.set("pid", JsonValue::number(static_cast<double>(::getpid())));
  JsonValue views = JsonValue::array();
  for (std::size_t k = 0; k < node.shard_count(); ++k) {
    views.push_back(JsonValue::number(
        static_cast<double>(node.view_size(k))));
  }
  doc.set("views", std::move(views));
  metrics::Snapshot snap = node.metrics_snapshot();
  std::uint64_t tokens = 0, delivered = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.find("session.token.received") != std::string::npos)
      tokens += value;
    if (name.find("session.msgs.delivered") != std::string::npos)
      delivered += value;
  }
  doc.set("tokens_received", JsonValue::number(static_cast<double>(tokens)));
  doc.set("delivered", JsonValue::number(static_cast<double>(delivered)));
  // SPSC handoff health: drops and retries across every ring's
  // TransportProxy pair. Nonzero drops flag overload (e.g. a resize
  // doubling a member's ring count) that the session layer absorbs as
  // loss+retransmit — visible here long before throughput degrades.
  std::uint64_t proxy_dropped = 0, proxy_retries = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.find("runtime.proxy.") == std::string::npos) continue;
    if (name.find("dropped") != std::string::npos) proxy_dropped += value;
    if (name.find("retries") != std::string::npos) proxy_retries += value;
  }
  doc.set("proxy_dropped",
          JsonValue::number(static_cast<double>(proxy_dropped)));
  doc.set("proxy_retries",
          JsonValue::number(static_cast<double>(proxy_retries)));
  return doc.dump();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) reject("no config path");
  double run_s = -1.0;  // below zero: run until SIGTERM/SIGINT
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--run-s") != 0) {
      reject(std::string("unexpected argument '") + argv[i] + "'");
    }
    if (i + 1 >= argc) reject("--run-s needs a value");
    const auto v = cli::finite(argv[++i]);
    if (!v || *v < 0.0) {
      reject(std::string("--run-s wants a finite number of seconds, zero "
                         "or more, got '") + argv[i] + "'");
    }
    run_s = *v;
  }

  runtime::RaincoredConfig cfg;
  std::string err;
  if (!runtime::RaincoredConfig::load(argv[1], cfg, err)) {
    std::fprintf(stderr, "raincored: %s\n", err.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.storage_dir, ec);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  try {
    runtime::ThreadedNode node(cfg.to_node_config());
    for (const auto& p : cfg.peers) node.add_peer(p.node, 0, p.ip, p.port);
    node.start();
    node.found_all();
    std::printf("raincored: node %u on %s:%u, %zu shard rings, pid %d\n",
                cfg.node, cfg.bind_ip.c_str(), node.port(0),
                node.shard_count(), ::getpid());
    std::fflush(stdout);

    const std::string status_path = cfg.storage_dir + "/status.json";
    const auto t0 = std::chrono::steady_clock::now();
    const auto nap = std::chrono::nanoseconds(cfg.status_interval);
    while (!g_stop) {
      std::this_thread::sleep_for(nap);
      write_atomically(status_path, status_line(node));
      if (run_s >= 0) {
        const std::chrono::duration<double> up =
            std::chrono::steady_clock::now() - t0;
        if (up.count() >= run_s) break;
      }
    }

    // Graceful drain: every ring LEAVEs its group (survivors see a clean
    // view shrink instead of failure-detecting a corpse), the per-shard
    // WALs are flushed, and only then does the final metrics snapshot go
    // out — so a retired member's metrics.json reflects its whole life.
    const bool clean = node.drain(seconds(5));
    if (!clean) {
      std::fprintf(stderr,
                   "raincored: drain timed out; some rings crash-stopped\n");
    }
    write_atomically(cfg.storage_dir + "/metrics.json",
                     node.metrics_snapshot().to_jsonl());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raincored: fatal: %s\n", e.what());
    return 1;
  }
  std::printf("raincored: node %u stopped\n", cfg.node);
  return 0;
}
