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
//
// Every value is checked before anything is forked: N and K are whole
// numbers in 1..64 (one process per node, one worker thread per shard in
// each), the ports P..P+N-1 lie in 1..65535, T is a finite number of
// seconds above zero, --kill9 needs N >= 2, and the daemon path names an
// executable file. A rejected command line exits 2 with a message.
//
// CLUSTER_TIMEOUT_S stands in for an absent --timeout-s, so CI on a loaded
// machine raises the timeout without touching every ctest invocation.
// Heartbeats are polled every 100 ms, and a killed member is restarted as
// soon as the survivors re-form. A member whose process exits during a
// convergence wait fails that phase at once, with its exit status. On a
// convergence timeout the harness prints each member's last heartbeat age,
// so a stuck run distinguishes "process dead" (stale/absent heartbeat)
// from "rings not merging" (fresh heartbeats, wrong view sizes).
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

#include "common/cli.h"
#include "common/json.h"
#include "runtime/raincored_config.h"

using namespace raincore;

namespace {

constexpr std::uint64_t kMaxNodes = 64;
constexpr std::uint64_t kMaxShards = 64;
constexpr int kMaxPort = 65535;
constexpr std::chrono::milliseconds kPoll{100};

[[noreturn]] void reject(const std::string& why) {
  std::fprintf(stderr, "cluster_harness: %s\n", why.c_str());
  std::exit(2);
}

/// All of `text` as a whole number in [lo, hi]; rejects anything else.
std::uint64_t whole(const char* what, const char* text, std::uint64_t lo,
                    std::uint64_t hi) {
  const auto v = cli::whole(text, lo, hi);
  if (!v) {
    reject(std::string(what) + " wants a whole number in " +
           std::to_string(lo) + ".." + std::to_string(hi) + ", got '" +
           text + "'");
  }
  return *v;
}

/// All of `text` as a finite number of seconds above zero.
double seconds(const char* what, const char* text) {
  const auto v = cli::finite(text);
  if (!v || *v <= 0.0) {
    reject(std::string(what) + " wants a finite number of seconds above " +
           "zero, got '" + text + "'");
  }
  return *v;
}

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

/// Age of a member's freshest heartbeat in seconds; negative when the
/// status file does not exist (never heartbeated, or just killed).
double heartbeat_age_s(const Member& m) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(m.status_path, ec);
  if (ec) return -1.0;
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

/// Polls until every live member reports `expect` members on all K rings;
/// fails at once when a live member's process exits.
bool wait_converged(const std::vector<Member*>& live, std::size_t shards,
                    std::size_t expect, double timeout_s, const char* phase) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    for (Member* m : live) {
      int status = 0;
      if (::waitpid(m->pid, &status, WNOHANG) != m->pid) continue;
      m->pid = -1;
      std::fprintf(stderr, "  %-28s FAILED: node %u %s %d\n", phase, m->id,
                   WIFEXITED(status) ? "exited with status" : "killed by signal",
                   WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status));
      return false;
    }
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
    std::this_thread::sleep_for(kPoll);
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
                 "[--base-port P] [--dir D] [--kill9] [--timeout-s T]\n");
    return 2;
  }
  const std::string binary = argv[1];
  std::size_t nodes = 4, shards = 4;
  int base_port = 0;
  std::string dir;
  bool kill9 = false;
  double timeout_s = 0.0;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) reject(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = whole("--nodes", next("--nodes"), 1, kMaxNodes);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = whole("--shards", next("--shards"), 1, kMaxShards);
    } else if (std::strcmp(argv[i], "--base-port") == 0) {
      base_port = static_cast<int>(
          whole("--base-port", next("--base-port"), 1, kMaxPort));
    } else if (std::strcmp(argv[i], "--dir") == 0) {
      dir = next("--dir");
    } else if (std::strcmp(argv[i], "--kill9") == 0) {
      kill9 = true;
    } else if (std::strcmp(argv[i], "--timeout-s") == 0) {
      timeout_s = seconds("--timeout-s", next("--timeout-s"));
    } else {
      reject(std::string("unknown flag ") + argv[i]);
    }
  }
  if (timeout_s == 0.0) {
    const char* env = ::getenv("CLUSTER_TIMEOUT_S");
    timeout_s = env != nullptr && *env != '\0'
                    ? seconds("CLUSTER_TIMEOUT_S", env)
                    : 90.0;
  }
  if (kill9 && nodes < 2) reject("--kill9 needs at least 2 nodes");
  if (base_port + static_cast<int>(nodes) - 1 > kMaxPort) {
    reject("--base-port " + std::to_string(base_port) + " leaves no room for " +
           std::to_string(nodes) + " ports up to " + std::to_string(kMaxPort));
  }
  std::error_code ec;
  if (!std::filesystem::is_regular_file(binary, ec) ||
      ::access(binary.c_str(), X_OK) != 0) {
    reject("daemon '" + binary + "' is not an executable file");
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
  ok = wait_converged(all, shards, nodes, timeout_s, "initial formation");

  if (ok && kill9) {
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
    ok = wait_converged(survivors, shards, nodes - 1, timeout_s,
                        "post-kill re-formation");

    if (ok) {
      std::printf("  restarting node %u\n", victim.id);
      victim.pid = spawn(binary, victim.config_path);
      ok = wait_converged(all, shards, nodes, timeout_s,
                          "rejoin after restart");
    }
  }

  terminate_all(members);
  std::printf("cluster: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
