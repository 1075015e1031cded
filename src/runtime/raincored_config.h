// raincored's on-disk configuration: one JSON document per cluster member.
//
//   {
//     "node": 1,
//     "shards": 4,
//     "bind_ip": "127.0.0.1",
//     "port": 48211,
//     "storage_dir": "/tmp/raincore/n1",
//     "token_hold_ms": 0.5,
//     "max_batch_msgs": 128,
//     "max_batch_bytes": 8192,
//     "status_interval_ms": 200,
//     "peers": [ {"node": 2, "ip": "127.0.0.1", "port": 48212}, ... ]
//   }
//
// The two *_ms keys take a decimal number of milliseconds, to whole
// microseconds (0.5, 2, 0.25).
//
// Fixed ports are the cross-process norm (peers must be nameable in each
// other's files); port 0 binds ephemeral, usable for a node that only
// dials out. The eligible set for BODYODOR discovery is implied: self plus
// every listed peer — a raincored cluster self-assembles by discovery, so
// a kill -9'd member that restarts re-founds a singleton and merges back
// in without any coordinator.
#pragma once

#include <string>
#include <vector>

#include "runtime/threaded_node.h"

namespace raincore::runtime {

struct RaincoredConfig {
  NodeId node = 0;
  std::size_t shards = 4;
  std::string bind_ip = "127.0.0.1";
  std::uint16_t port = 0;
  /// Status/metrics output directory (created if missing).
  std::string storage_dir = ".";
  /// How long a member holds the token per visit. 0.5 ms is the knee of
  /// the hold/CPU frontier measured on a 4-vCPU host (EXPERIMENTS.md E5).
  Time token_hold = micros(500);
  /// Per-visit batch caps. Unlike the simulator, real UDP has a hard
  /// 65507-byte datagram ceiling, and an attached batch rides the token
  /// for one full rotation — so keep cluster_size x max_batch_bytes (plus
  /// ~1 KiB of token overhead) under that ceiling or token frames vanish
  /// in sendmsg. The defaults are sized for clusters up to ~7 nodes.
  std::size_t max_batch_msgs = 128;
  std::size_t max_batch_bytes = 8 << 10;
  /// Cadence of the status.json heartbeat the cluster harness polls.
  Time status_interval = millis(200);

  struct Peer {
    NodeId node = 0;
    std::string ip;
    std::uint16_t port = 0;
  };
  std::vector<Peer> peers;

  /// Parses a config file; false (with a one-line reason in `err`) on
  /// malformed input or missing required keys (node, port, peers).
  static bool load(const std::string& path, RaincoredConfig& out,
                   std::string& err);
  /// Serializes (round-trips through load); the cluster harness writes
  /// per-member files this way.
  std::string dump() const;

  /// The runtime config this file describes: K shard rings on groups
  /// 0..K-1, discovery across self+peers on every ring.
  ThreadedNodeConfig to_node_config() const;
};

}  // namespace raincore::runtime
