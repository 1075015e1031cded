// Output checks. A run whose checks fail reports correct=false, counts each
// violation as a failed op and exits non-zero.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using raincore::NodeId;
using raincore::Time;

/// Agreed deliveries of one origin's stream as seen by one member: the
/// delivery instant of each message, in delivery order. Per-origin FIFO
/// makes the message index equal to the position in the clean case, so
/// only departures from that ("jumps": a position whose index is not the
/// previous index + 1) are stored next to the times.
class SeqLog {
 public:
  void reserve(std::size_t n) { at_.reserve(n); }
  void append(std::uint64_t index, Time at) {
    if (index != expected_) jumps_.push_back({at_.size(), index});
    at_.push_back(at);
    expected_ = index + 1;
  }
  std::size_t size() const { return at_.size(); }
  Time at(std::size_t pos) const { return at_[pos]; }
  bool clean() const { return jumps_.empty(); }
  /// Index of every delivered message, in delivery order.
  std::vector<std::uint64_t> indices() const;

 private:
  std::vector<Time> at_;
  std::vector<std::pair<std::size_t, std::uint64_t>> jumps_;
  std::uint64_t expected_ = 0;
};

struct StreamViolations {
  std::uint64_t lost = 0;        ///< accepted, never delivered
  std::uint64_t duplicated = 0;  ///< delivered more than once
  std::uint64_t reordered = 0;   ///< delivered after a later index
  std::uint64_t phantom = 0;     ///< delivered, never accepted
  std::uint64_t total() const { return lost + duplicated + reordered + phantom; }
};

/// Compares one member's delivered index sequence with the origin's
/// accepted messages (`accepted[i]` true when message i was accepted by
/// try_multicast): every accepted message exactly once, in index order.
void check_stream(const std::vector<bool>& accepted,
                  const std::vector<std::uint64_t>& delivered,
                  StreamViolations& out);

/// Order-sensitive digest of one ring's agreed (origin, index) sequence at
/// one member; equal digests and equal counts at every member mean the
/// members agreed on one total order.
inline std::uint64_t order_step(std::uint64_t h, NodeId origin,
                                std::uint64_t index) {
  const std::uint64_t x = (static_cast<std::uint64_t>(origin) << 48) ^ index;
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
inline constexpr std::uint64_t kOrderSeed = 0xcbf29ce484222325ull;

/// Mutual exclusion over every node's view: a grant is a violation when
/// another node was granted the same lock and has not released it yet.
/// Releases are noted when the holder calls release(), which precedes the
/// agreed RELEASE the next grant depends on, so the check never fires on a
/// correct lock service.
class LockOracle {
 public:
  void granted(const std::string& name, NodeId node) {
    auto it = holder_.find(name);
    if (it != holder_.end() && it->second != node) ++violations_;
    holder_[name] = node;
  }
  void released(const std::string& name, NodeId node) {
    auto it = holder_.find(name);
    if (it != holder_.end() && it->second == node) holder_.erase(it);
  }
  /// The node left the cluster: its leases end with it.
  void drop_node(NodeId node) {
    for (auto it = holder_.begin(); it != holder_.end();) {
      it = it->second == node ? holder_.erase(it) : std::next(it);
    }
  }
  std::uint64_t violations() const { return violations_; }

 private:
  std::map<std::string, NodeId> holder_;
  std::uint64_t violations_ = 0;
};

/// Replicated-map values written by the benchmark: a fixed-width record
/// naming the key, the writer and the writer's put sequence number,
/// padded to `size` bytes.
std::string encode_value(std::uint32_t key, NodeId writer, std::uint32_t seq,
                         std::size_t size);
struct ValueId {
  std::uint32_t key = 0;
  NodeId writer = 0;
  std::uint32_t seq = 0;
};
std::optional<ValueId> decode_value(const std::string& v);

/// Every put the benchmark issued, per writer, in issue order: the key it
/// wrote. A read is valid when it returns a value some put wrote for that
/// key.
class PutLedger {
 public:
  explicit PutLedger(std::size_t writers) : keys_(writers + 1) {}
  std::uint32_t issue(NodeId writer, std::uint32_t key) {
    keys_.at(writer).push_back(key);
    return static_cast<std::uint32_t>(keys_[writer].size() - 1);
  }
  bool valid_read(std::uint32_t key, const std::string& value) const {
    auto id = decode_value(value);
    return id && id->key == key && id->writer < keys_.size() &&
           id->seq < keys_[id->writer].size() &&
           keys_[id->writer][id->seq] == key;
  }
  std::size_t issued(NodeId writer) const { return keys_.at(writer).size(); }

 private:
  std::vector<std::vector<std::uint32_t>> keys_;
};

/// Replica contents that differ from the first replica's (one count per
/// differing replica).
std::uint64_t replica_mismatches(
    const std::vector<const std::map<std::string, std::string>*>& replicas);

}  // namespace perfbench
