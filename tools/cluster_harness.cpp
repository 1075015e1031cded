// Real-process cluster harness: launches N raincored processes on
// localhost kernel UDP, waits for every shard ring on every node to
// converge, optionally kill -9s one member and verifies the rings re-form
// without it and again after its restart, then shuts the cluster down.
//
// Exit status is the verdict (0 = every phase converged), so the harness
// doubles as the process-mode acceptance test; scripts/cluster.sh is the
// human entry point and ctest runs it under the `runtime` label.
//
// Usage: cluster_harness <path-to-raincored> [--nodes N] [--shards K]
//          [--base-port P] [--dir D] [--kill9] [--timeout-s T]
//          [--poll-ms M] [--respawn-delay-s R]
//
// Environment fallbacks (flags win): CLUSTER_TIMEOUT_S, CLUSTER_POLL_MS,
// CLUSTER_RESPAWN_DELAY_S. CI on a loaded machine raises the timeout via
// env without touching every ctest invocation; the respawn delay models a
// supervisor's restart backoff in the kill -9 phase. On a convergence
// timeout the harness prints each member's last heartbeat age, so a stuck
// run distinguishes "process dead" (stale/absent heartbeat) from "rings
// not merging" (fresh heartbeats, wrong view sizes).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "runtime/raincored_config.h"

using namespace raincore;

namespace {

struct Member {
  NodeId id = 0;
  std::string config_path;
  std::string status_path;
  pid_t pid = -1;
};

pid_t spawn(const std::string& binary, const std::string& config) {
  pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(binary.c_str(), binary.c_str(), config.c_str(),
            static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  return pid;
}

/// Reads a member's freshest heartbeat; false when absent/unparsable (a
/// just-started or just-killed node).
bool read_views(const Member& m, std::vector<std::size_t>& views) {
  std::ifstream in(m.status_path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  if (!JsonValue::parse(ss.str(), doc) || !doc.is_object()) return false;
  const JsonValue* v = doc.find("views");
  if (!v || !v->is_array()) return false;
  views.clear();
  for (const JsonValue& e : v->items()) {
    std::uint64_t size = 0;
    if (!e.read_uint(kInvalidNode, size)) return false;
    views.push_back(static_cast<std::size_t>(size));
  }
  return true;
}

double env_or(const char* name, double dflt) {
  const char* v = ::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : dflt;
}

/// Age of a member's freshest heartbeat in seconds; negative when the
/// status file does not exist (never heartbeated, or just killed).
double heartbeat_age_s(const Member& m) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(m.status_path, ec);
  if (ec) return -1.0;
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

/// Polls until every live member reports `expect` members on all K rings.
bool wait_converged(const std::vector<Member*>& live, std::size_t shards,
                    std::size_t expect, double timeout_s, double poll_ms,
                    const char* phase) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    bool all_ok = true;
    for (const Member* m : live) {
      std::vector<std::size_t> views;
      if (!read_views(*m, views) || views.size() != shards) {
        all_ok = false;
        break;
      }
      for (std::size_t s : views) {
        if (s != expect) {
          all_ok = false;
          break;
        }
      }
      if (!all_ok) break;
    }
    if (all_ok) {
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      std::printf("  %-28s converged to %zu members in %.1f s\n", phase,
                  expect, dt.count());
      return true;
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (dt.count() > timeout_s) {
      std::fprintf(stderr, "  %-28s TIMED OUT after %.0f s\n", phase,
                   timeout_s);
      // Distinguish "process dead" from "rings not merging": a member that
      // stopped heartbeating is stale/absent here; fresh ages mean the
      // processes are alive but the views never reached `expect`.
      for (const Member* m : live) {
        const double age = heartbeat_age_s(*m);
        if (age < 0) {
          std::fprintf(stderr, "    node %-3u last heartbeat: absent\n", m->id);
        } else {
          std::fprintf(stderr, "    node %-3u last heartbeat: %.1f s ago\n",
                       m->id, age);
        }
      }
      return false;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll_ms));
  }
}

void terminate_all(std::vector<Member>& members) {
  for (Member& m : members) {
    if (m.pid > 0) ::kill(m.pid, SIGTERM);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (Member& m : members) {
    if (m.pid <= 0) continue;
    for (;;) {
      int status = 0;
      pid_t r = ::waitpid(m.pid, &status, WNOHANG);
      if (r == m.pid || r < 0) break;
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      if (dt.count() > 10.0) {
        ::kill(m.pid, SIGKILL);
        ::waitpid(m.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    m.pid = -1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: cluster_harness <raincored> [--nodes N] [--shards K] "
                 "[--base-port P] [--dir D] [--kill9] [--timeout-s T] "
                 "[--poll-ms M] [--respawn-delay-s R]\n");
    return 2;
  }
  const std::string binary = argv[1];
  std::size_t nodes = 4, shards = 4;
  int base_port = 0;
  std::string dir;
  bool kill9 = false;
  double timeout_s = env_or("CLUSTER_TIMEOUT_S", 90.0);
  double poll_ms = env_or("CLUSTER_POLL_MS", 100.0);
  double respawn_delay_s = env_or("CLUSTER_RESPAWN_DELAY_S", 0.0);
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = static_cast<std::size_t>(std::atoi(next("--nodes")));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<std::size_t>(std::atoi(next("--shards")));
    } else if (std::strcmp(argv[i], "--base-port") == 0) {
      base_port = std::atoi(next("--base-port"));
    } else if (std::strcmp(argv[i], "--dir") == 0) {
      dir = next("--dir");
    } else if (std::strcmp(argv[i], "--kill9") == 0) {
      kill9 = true;
    } else if (std::strcmp(argv[i], "--timeout-s") == 0) {
      timeout_s = std::atof(next("--timeout-s"));
    } else if (std::strcmp(argv[i], "--poll-ms") == 0) {
      poll_ms = std::atof(next("--poll-ms"));
    } else if (std::strcmp(argv[i], "--respawn-delay-s") == 0) {
      respawn_delay_s = std::atof(next("--respawn-delay-s"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (base_port == 0) {
    // Spread parallel harness runs across the registered-port range.
    base_port = 40000 + static_cast<int>((::getpid() * 131) % 20000);
  }
  if (dir.empty()) {
    dir = "/tmp/raincore-cluster-" + std::to_string(::getpid());
  }
  std::filesystem::create_directories(dir);

  std::printf("cluster: %zu raincored processes, K=%zu shards, udp ports "
              "%d..%d, dir %s\n",
              nodes, shards, base_port,
              base_port + static_cast<int>(nodes) - 1, dir.c_str());

  // Per-member config files: full-mesh peer lists on fixed loopback ports.
  std::vector<Member> members(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    runtime::RaincoredConfig cfg;
    cfg.node = static_cast<NodeId>(i + 1);
    cfg.shards = shards;
    cfg.port = static_cast<std::uint16_t>(base_port + static_cast<int>(i));
    cfg.storage_dir = dir + "/n" + std::to_string(cfg.node);
    cfg.status_interval = millis(100);
    for (std::size_t j = 0; j < nodes; ++j) {
      if (j == i) continue;
      cfg.peers.push_back(
          {static_cast<NodeId>(j + 1), "127.0.0.1",
           static_cast<std::uint16_t>(base_port + static_cast<int>(j))});
    }
    Member& m = members[i];
    m.id = cfg.node;
    m.config_path = dir + "/raincored-" + std::to_string(cfg.node) + ".json";
    m.status_path = cfg.storage_dir + "/status.json";
    std::filesystem::create_directories(cfg.storage_dir);
    std::ofstream(m.config_path) << cfg.dump() << "\n";
  }

  for (Member& m : members) m.pid = spawn(binary, m.config_path);

  bool ok = true;
  std::vector<Member*> all;
  for (Member& m : members) all.push_back(&m);
  ok = wait_converged(all, shards, nodes, timeout_s, poll_ms,
                      "initial formation");

  if (ok && kill9 && nodes >= 2) {
    Member& victim = members[1];
    std::printf("  kill -9 node %u (pid %d)\n", victim.id, victim.pid);
    ::kill(victim.pid, SIGKILL);
    ::waitpid(victim.pid, nullptr, 0);
    victim.pid = -1;
    std::remove(victim.status_path.c_str());

    std::vector<Member*> survivors;
    for (Member& m : members) {
      if (m.pid > 0) survivors.push_back(&m);
    }
    ok = wait_converged(survivors, shards, nodes - 1, timeout_s, poll_ms,
                        "post-kill re-formation");

    if (ok) {
      if (respawn_delay_s > 0.0) {
        // Model a supervisor's restart backoff: the rings run degraded for
        // the whole delay before the member comes back.
        std::printf("  respawn delay %.1f s\n", respawn_delay_s);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(respawn_delay_s));
      }
      std::printf("  restarting node %u\n", victim.id);
      victim.pid = spawn(binary, victim.config_path);
      ok = wait_converged(all, shards, nodes, timeout_s, poll_ms,
                          "rejoin after restart");
    }
  }

  terminate_all(members);
  std::printf("cluster: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
