#include "runtime/raincored_config.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.h"

namespace raincore::runtime {

namespace {

constexpr std::uint64_t kMaxNode = kInvalidNode - 1;
constexpr std::uint64_t kMaxPort = std::numeric_limits<std::uint16_t>::max();
// Ring k runs on demux group k, a 16-bit id.
constexpr std::uint64_t kMaxShards =
    std::uint64_t{std::numeric_limits<transport::MuxGroup>::max()} + 1;
constexpr std::uint64_t kMaxMillis =
    std::numeric_limits<Time>::max() / kNanosPerMilli;
// Exact as a double: a multiple of 8 below 2^54.
constexpr double kMaxMicros = static_cast<double>(kMaxMillis * 1000);
constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();

}  // namespace

bool RaincoredConfig::load(const std::string& path, RaincoredConfig& out,
                           std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  if (!JsonValue::parse(ss.str(), doc) || !doc.is_object()) {
    err = path + ": not a JSON object";
    return false;
  }

  // obj[key] as a whole number in [0, max]. An absent optional key leaves
  // `v` as it was; an absent required key or a value out of range fails.
  auto read_uint = [&](const JsonValue& obj, const char* key,
                       std::uint64_t max, bool required, std::uint64_t& v) {
    const JsonValue* j = obj.find(key);
    if (!j) {
      if (required) err = path + ": missing required key \"" + key + "\"";
      return !required;
    }
    if (!j->read_uint(max, v)) {
      err = path + ": \"" + key + "\" must be a whole number in 0.." +
            std::to_string(max);
      return false;
    }
    return true;
  };

  // doc[key] as a decimal number of milliseconds in whole µs: the value
  // must be the double nearest its µs count / 1000, so a finer one
  // (0.0005) fails rather than rounds. An absent key leaves `v` as it was.
  auto read_millis = [&](const char* key, Time& v) {
    const JsonValue* j = doc.find(key);
    if (!j) return true;
    const double ms = j->is_number() ? j->as_number() : -1.0;
    const double us = std::round(ms * 1000.0);
    if (!(ms >= 0.0) || !(us <= kMaxMicros) || us / 1000.0 != ms) {
      err = path + ": \"" + key + "\" must be a number of milliseconds in 0.." +
            std::to_string(kMaxMillis) + " with at most 3 decimals";
      return false;
    }
    v = micros(static_cast<std::int64_t>(us));
    return true;
  };

  std::uint64_t node = 0, port = 0;
  std::uint64_t shards = out.shards;
  Time hold = out.token_hold;
  std::uint64_t batch_msgs = out.max_batch_msgs;
  std::uint64_t batch_bytes = out.max_batch_bytes;
  Time status = out.status_interval;
  if (!read_uint(doc, "node", kMaxNode, true, node) ||
      !read_uint(doc, "port", kMaxPort, true, port) ||
      !read_uint(doc, "shards", kMaxShards, false, shards) ||
      !read_millis("token_hold_ms", hold) ||
      !read_uint(doc, "max_batch_msgs", kMaxSize, false, batch_msgs) ||
      !read_uint(doc, "max_batch_bytes", kMaxSize, false, batch_bytes) ||
      !read_millis("status_interval_ms", status)) {
    return false;
  }
  if (shards == 0) {
    err = path + ": \"shards\" must be at least 1";
    return false;
  }
  out.node = static_cast<NodeId>(node);
  out.port = static_cast<std::uint16_t>(port);
  out.shards = static_cast<std::size_t>(shards);
  out.token_hold = hold;
  out.max_batch_msgs = static_cast<std::size_t>(batch_msgs);
  out.max_batch_bytes = static_cast<std::size_t>(batch_bytes);
  out.status_interval = status;
  if (const JsonValue* v = doc.find("bind_ip"); v && v->is_string()) {
    out.bind_ip = v->as_string();
  }
  if (const JsonValue* v = doc.find("storage_dir"); v && v->is_string()) {
    out.storage_dir = v->as_string();
  }

  const JsonValue* peers = doc.find("peers");
  if (!peers || !peers->is_array()) {
    err = path + ": missing required key \"peers\" (array)";
    return false;
  }
  out.peers.clear();
  for (const JsonValue& p : peers->items()) {
    Peer peer;
    std::uint64_t pnode = 0, pport = 0;
    const JsonValue* ip = p.find("ip");
    if (!p.is_object() || !p.find("node") || !p.find("port") || !ip ||
        !ip->is_string()) {
      err = path + ": each peer needs node, ip, port";
      return false;
    }
    if (!read_uint(p, "node", kMaxNode, true, pnode) ||
        !read_uint(p, "port", kMaxPort, true, pport)) {
      return false;
    }
    peer.node = static_cast<NodeId>(pnode);
    peer.ip = ip->as_string();
    peer.port = static_cast<std::uint16_t>(pport);
    out.peers.push_back(std::move(peer));
  }
  return true;
}

std::string RaincoredConfig::dump() const {
  // Whole µs over 1000: the double load() reads back to the same µs.
  auto ms = [](Time t) {
    return JsonValue::number(static_cast<double>(t / kNanosPerMicro) / 1000.0);
  };
  JsonValue doc = JsonValue::object();
  doc.set("node", JsonValue::number(node));
  doc.set("shards", JsonValue::number(static_cast<double>(shards)));
  doc.set("bind_ip", JsonValue::string(bind_ip));
  doc.set("port", JsonValue::number(port));
  doc.set("storage_dir", JsonValue::string(storage_dir));
  doc.set("token_hold_ms", ms(token_hold));
  doc.set("max_batch_msgs",
          JsonValue::number(static_cast<double>(max_batch_msgs)));
  doc.set("max_batch_bytes",
          JsonValue::number(static_cast<double>(max_batch_bytes)));
  doc.set("status_interval_ms", ms(status_interval));
  JsonValue arr = JsonValue::array();
  for (const Peer& p : peers) {
    JsonValue pv = JsonValue::object();
    pv.set("node", JsonValue::number(p.node));
    pv.set("ip", JsonValue::string(p.ip));
    pv.set("port", JsonValue::number(p.port));
    arr.push_back(std::move(pv));
  }
  doc.set("peers", std::move(arr));
  return doc.dump();
}

ThreadedNodeConfig RaincoredConfig::to_node_config() const {
  ThreadedNodeConfig nc;
  nc.node = node;
  nc.shards = shards;
  nc.bind_ip = bind_ip;
  nc.ports = {port};
  nc.ring.token_hold = token_hold;
  nc.ring.max_batch_msgs = max_batch_msgs;
  nc.ring.max_batch_bytes = max_batch_bytes;
  nc.ring.eligible.push_back(node);
  for (const Peer& p : peers) {
    nc.ring.eligible.push_back(p.node);
    nc.peers.push_back(p.node);
  }
  // Per-shard durable delivery journals under <storage_dir>/wal; the
  // SIGTERM drain flushes them before the process exits.
  nc.storage.dir = storage_dir + "/wal";
  return nc;
}

}  // namespace raincore::runtime
