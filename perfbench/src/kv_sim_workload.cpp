// kv-sim: four session::SessionMux nodes, each with a data::ShardedDataPlane
// of K = 4 rings (raincored's default ring knobs), a ShardedMap and a
// ShardedLockManager, on net::SimNetwork (100 us one-way delay, no loss).
// Virtual time makes every latency here exact and seed-reproducible, so a
// protocol change shows without noise; wall-clock figures (CPU per op,
// get cost, set-up) are the medians over repetitions of the same seed, and
// every repetition must reproduce the first one's virtual results bit for
// bit.
//
// Load per node per virtual second: 5k puts (64 B values on 10k uniform
// keys, Poisson arrivals), 20k gets (batches of 20 every 1 ms), one lock
// acquire every 20 ms on one of 8 names, released 1 ms after its grant
// (acquires stop 100 ms before the pull, see lock_event).
// After the steady window node 4's cable is pulled while the survivors
// keep writing (puts and gets); the fail-over gap is the longest stretch on
// any shard with no survivor put acknowledged.
#include <cmath>
#include <memory>

#include "checks.h"
#include "counters.h"
#include "common/rng.h"
#include "data/shard_router.h"
#include "net/sim_network.h"
#include "runtime/raincored_config.h"
#include "session/session_mux.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace raincore;

constexpr std::size_t kNodes = 4;
constexpr NodeId kCutNode = 4;
constexpr data::Channel kMapChannel = 1;
constexpr data::Channel kLockChannel = 2;
constexpr double kPutsPerS = 5000.0;
constexpr std::size_t kGetBatch = 20;
const Time kGetEvery = millis(1);
const Time kLockEvery = millis(20);
const Time kLockHold = millis(1);
const Time kLockQuiesce = millis(100);
constexpr std::uint32_t kKeys = 10000;
constexpr std::uint32_t kLockNames = 8;
constexpr std::size_t kValueBytes = 64;
const Time kSlice = millis(500);
const Time kDrainLimit = seconds(5);

struct PutRec {
  Time issued = 0;
  Time acked = -1;
  std::uint8_t applied_at = 0;  ///< bit n-1: applied at node n
};

struct LockRec {
  NodeId node = 0;
  std::uint32_t name = 0;
  Time issued = 0;
  Time granted = -1;
};

struct KvNode {
  NodeId id = 0;
  std::unique_ptr<session::SessionMux> mux;
  std::unique_ptr<data::ShardedDataPlane> plane;
  std::unique_ptr<data::ShardedMap> map;
  std::unique_ptr<data::ShardedLockManager> locks;
  bool alive = true;
  // Pre-generated inputs.
  std::vector<Time> put_at;
  std::vector<std::uint32_t> put_key;
  std::vector<std::uint32_t> get_key;
  std::vector<std::uint32_t> lock_name;
  std::size_t put_next = 0, get_next = 0, lock_next = 0;
};

/// Wall-clock and traced figures of one repetition.
struct KvSimWall {
  double setup_s = 0;
  std::vector<double> slice_cpu_us_per_op;  ///< steady-window slices
  double get_ns = 0;
  double loop_cpu_frac = 0;
  double put_call_ns = 0;
  double acquire_call_ns = 0;
  double handler_ns = 0;
  bool traced = false;
};

/// Counts and virtual-time figures the per-layer report needs.
struct KvSimLayer {
  double applies_per_put = 0;
  double frames_per_op = 0;
  double wakeups_per_node_s = 0;
  double retries_per_kop = 0;
  double ack_p50_us = 0;
  double msgs_per_batch = 0;
  double token_hops_per_s = 0;
  double rotation_p50_ms = 0;
  double rotation_p99_ms = 0;
  double eating_dwell_p50_ms = 0;
  double backpressure_stalls = 0;
  double view_changes = 0;
  double rounds_911 = 0;
  double pkts_per_op = 0;
  double offered_ratio = 0;
};

struct KvSimChecks {
  std::uint64_t attempted = 0;
  std::uint64_t cut_off = 0;  ///< node 4's ops still open at the pull
  std::uint64_t unacked_puts = 0;
  std::uint64_t ungranted_locks = 0;
  std::uint64_t lost_acked_puts = 0;
  std::uint64_t replica_mismatch = 0;
  std::uint64_t lock_violations = 0;
  std::uint64_t bad_reads = 0;
  std::uint64_t bad_applies = 0;
  std::uint64_t reads = 0, read_hits = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

class KvSim {
 public:
  KvSim(std::uint64_t seed, const KvSimShape& shape, bool traced)
      : seed_(seed), shape_(shape), traced_(traced), ledger_(kNodes) {
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "key%05u", k);
      keys_.emplace_back(buf);
    }
    for (std::uint32_t l = 0; l < kLockNames; ++l) {
      lock_names_.push_back("lock" + std::to_string(l));
    }
  }

  /// Constructs the cluster and runs it until every ring on every node has
  /// four members and every map replica is synced. Returns false on a
  /// timeout.
  bool setup() {
    const Time t_a = wall_ns();
    net::SimNetConfig nc;
    nc.seed = seed_ ^ 0x6b765f73696dull;
    net_ = std::make_unique<net::SimNetwork>(nc);
    for (NodeId id = 1; id <= kNodes; ++id) {
      runtime::RaincoredConfig rc;  // raincored's defaults: the deployed knobs
      rc.node = id;
      for (NodeId p = 1; p <= kNodes; ++p) {
        if (p != id) rc.peers.push_back({p, "127.0.0.1", 0});
      }
      const runtime::ThreadedNodeConfig tc = rc.to_node_config();
      auto n = std::make_unique<KvNode>();
      n->id = id;
      n->mux = std::make_unique<session::SessionMux>(net_->add_node(id),
                                                     tc.transport);
      n->plane = std::make_unique<data::ShardedDataPlane>(*n->mux, tc.shards,
                                                          tc.ring);
      n->map = std::make_unique<data::ShardedMap>(*n->plane, kMapChannel);
      n->locks =
          std::make_unique<data::ShardedLockManager>(*n->plane, kLockChannel);
      KvNode* np = n.get();
      n->map->set_shard_change_handler(
          [this, np](std::size_t shard, const std::string& key,
                     const std::optional<std::string>& value, NodeId origin) {
            on_apply(*np, shard, key, value, origin);
          });
      nodes_.push_back(std::move(n));
    }
    for (auto& n : nodes_) n->plane->found_all();
    bool converged = false;
    for (int i = 0; i < 3000 && !converged; ++i) {
      net_->loop().run_for(millis(10));
      converged = true;
      for (auto& n : nodes_) {
        converged = converged && n->plane->all_converged(kNodes) &&
                    n->map->synced();
      }
    }
    setup_s_ = to_seconds(wall_ns() - t_a);
    return converged;
  }

  void run() {
    net::EventLoop& loop = net_->loop();
    t_start_ = loop.now() + millis(10);
    t_open_ = t_start_ + millis(shape_.warmup_ms);
    t_pull_ = t_open_ + millis(shape_.steady_ms);
    t_stop_ = t_pull_ + millis(shape_.failover_ms);
    generate_inputs();
    for (auto& n : nodes_) {
      KvNode* np = n.get();
      if (!np->put_at.empty()) {
        loop.schedule_at(np->put_at[0], [this, np] { put_event(*np); });
      }
      loop.schedule_at(t_start_, [this, np] { get_event(*np); });
      loop.schedule_at(t_start_ + millis(5) * static_cast<Time>(np->id - 1),
                       [this, np] { lock_event(*np); });
    }
    loop.schedule_at(t_pull_, [this] { pull_cable(); });

    loop.run_until(t_open_);
    const metrics::Snapshot s_open = snapshot();
    const auto pkts_open = net_->totals().pkts_sent.value();
    // Process CPU is marked at every slice boundary: the repetition's CPU
    // per op is the median over slices, so a burst of contention from
    // outside the process moves one slice, not the figure.
    std::vector<Time> cpu_marks{process_cpu_ns()};
    Time loop_cpu = 0;
    for (Time t = t_open_; t < t_pull_; t += kSlice) {
      const Time until = std::min(t + kSlice, t_pull_);
      const Time c0 = thread_cpu_ns();
      const Time w0 = traced_ ? wall_ns() : 0;
      loop.run_until(until);
      loop_cpu += thread_cpu_ns() - c0;
      if (traced_) spans_.add(Span::kRunFor, w0, wall_ns() - w0);
      cpu_marks.push_back(process_cpu_ns());
    }
    const Time cpu_open = cpu_marks.front();
    const Time cpu_close = cpu_marks.back();
    const metrics::Snapshot s_close = snapshot();
    const auto pkts_close = net_->totals().pkts_sent.value();
    window_applies_ = applies_in_window_;

    loop.run_until(t_stop_);
    for (Time t = t_stop_; t < t_stop_ + kDrainLimit && !settled();
         t += millis(10)) {
      loop.run_until(t + millis(10));
    }
    const metrics::Snapshot s_end = snapshot();

    // --- virtual results ---------------------------------------------------
    Samples puts, locks;
    double ops = 0, acked_in_window = 0;
    std::vector<double> slice_ops(cpu_marks.size() - 1, 0.0);
    for (NodeId w = 1; w <= kNodes; ++w) {
      for (const PutRec& p : puts_[w]) {
        if (p.issued >= t_open_ && p.issued < t_pull_ && p.acked >= 0) {
          puts.add(static_cast<double>(p.acked - p.issued));
        }
        if (p.acked >= t_open_ && p.acked < t_pull_) {
          ops += 1;
          acked_in_window += 1;
          slice_ops[static_cast<std::size_t>((p.acked - t_open_) / kSlice)] += 1;
        }
      }
    }
    for (const LockRec& l : lock_recs_) {
      if (l.issued >= t_open_ && l.issued < t_pull_ && l.granted >= 0) {
        locks.add(static_cast<double>(l.granted - l.issued));
      }
      if (l.granted >= t_open_ && l.granted < t_pull_) {
        ops += 1;
        slice_ops[static_cast<std::size_t>((l.granted - t_open_) / kSlice)] += 1;
      }
    }
    put_samples_ = puts;
    lock_samples_ = locks;
    virt_.put_ack_ns.clear();
    for (double q = 0; q < 1.0; q += 1.0 / 1024) {
      virt_.put_ack_ns.push_back(puts.quantile(q));
      virt_.lock_wait_ns.push_back(locks.quantile(q));
    }
    virt_.failover_gap_ns = static_cast<double>(failover_gap());
    std::uint64_t h = 0;
    for (const auto& [name, v] : s_end.counters) {
      h = mix(h, std::hash<std::string>{}(name));
      h = mix(h, v);
    }
    for (NodeId w = 1; w <= kNodes; ++w) {
      for (const PutRec& p : puts_[w]) h = mix(h, static_cast<std::uint64_t>(p.acked));
    }
    for (const LockRec& l : lock_recs_) h = mix(h, static_cast<std::uint64_t>(l.granted));
    h = mix(h, net_->totals().pkts_sent.value());
    h = mix(h, net_->totals().bytes_sent.value());
    virt_.counter_digest = h;

    // --- wall and per-layer figures ---------------------------------------
    const double steady_s = to_seconds(t_pull_ - t_open_);
    const double cpu = static_cast<double>(cpu_close - cpu_open);
    wall_.setup_s = setup_s_;
    for (std::size_t j = 0; j < slice_ops.size(); ++j) {
      wall_.slice_cpu_us_per_op.push_back(per(
          static_cast<double>(cpu_marks[j + 1] - cpu_marks[j]) / 1e3,
          slice_ops[j]));
    }
    wall_.get_ns = per(get_wall_ns_, static_cast<double>(get_calls_));
    wall_.loop_cpu_frac = per(static_cast<double>(loop_cpu), cpu);
    wall_.put_call_ns = spans_.durations(Span::kPut).mean();
    wall_.acquire_call_ns = spans_.durations(Span::kAcquire).mean();
    wall_.handler_ns = spans_.durations(Span::kHandler).mean();
    wall_.traced = traced_;

    const metrics::Snapshot d = s_close.diff(s_open);
    const metrics::Snapshot f = s_end.diff(s_close);
    layer_.applies_per_put = per(window_applies_, acked_in_window);
    layer_.frames_per_op = per(counter_sum(d, "transport.frames_out"), ops);
    layer_.wakeups_per_node_s =
        per(counter_sum(d, "transport.task_switches"), kNodes * steady_s);
    layer_.retries_per_kop = per(1e3 * counter_sum(d, "transport.retries"), ops);
    layer_.ack_p50_us = hist_quantile(s_close, "transport.ack_latency_ns",
                                      &metrics::HistStat::p50) / 1e3;
    layer_.msgs_per_batch = per(counter_sum(d, "session.batch.msgs"),
                                counter_sum(d, "session.batch.attached"));
    layer_.token_hops_per_s = per(counter_sum(d, "session.token.passed"), steady_s);
    layer_.rotation_p50_ms = hist_quantile(s_close, "session.token.rotation_ns",
                                           &metrics::HistStat::p50) / 1e6;
    layer_.rotation_p99_ms = hist_quantile(s_close, "session.token.rotation_ns",
                                           &metrics::HistStat::p99) / 1e6;
    layer_.eating_dwell_p50_ms =
        hist_quantile(s_close, "session.state.eating_dwell_ns",
                      &metrics::HistStat::p50) / 1e6;
    layer_.backpressure_stalls = counter_sum(d, "session.backpressure_stalls") +
                                 counter_sum(f, "session.backpressure_stalls");
    layer_.view_changes = counter_sum(f, "session.view_changes");
    layer_.rounds_911 = counter_sum(f, "session.911.rounds");
    layer_.pkts_per_op = per(static_cast<double>(pkts_close - pkts_open), ops);
    layer_.offered_ratio = per(acked_in_window, kPutsPerS * kNodes * steady_s);

    check();
  }

  const KvSimVirtual& virt() const { return virt_; }
  const KvSimWall& wall() const { return wall_; }
  const KvSimLayer& layer() const { return layer_; }
  const KvSimChecks& checks() const { return checks_; }
  Samples& put_samples() { return put_samples_; }
  Samples& lock_samples() { return lock_samples_; }
  SpanLog& spans() { return spans_; }

 private:
  void generate_inputs() {
    const Time gen_end = t_stop_;
    for (auto& n : nodes_) {
      Rng rng(seed_ * 0x9e3779b97f4a7c15ull + n->id);
      for (Time t = t_start_;;) {
        const double u = rng.next_double();
        t += static_cast<Time>(
            std::llround(-std::log1p(-u) * 1e9 / kPutsPerS));
        if (t >= gen_end) break;
        n->put_at.push_back(t);
        n->put_key.push_back(static_cast<std::uint32_t>(rng.next_below(kKeys)));
      }
      const std::size_t batches =
          static_cast<std::size_t>((gen_end - t_start_) / kGetEvery) + 1;
      for (std::size_t i = 0; i < batches * kGetBatch; ++i) {
        n->get_key.push_back(static_cast<std::uint32_t>(rng.next_below(kKeys)));
      }
      const std::size_t lock_ops =
          static_cast<std::size_t>((gen_end - t_start_) / kLockEvery) + 1;
      for (std::size_t i = 0; i < lock_ops; ++i) {
        n->lock_name.push_back(
            static_cast<std::uint32_t>(rng.next_below(kLockNames)));
      }
    }
  }

  void put_event(KvNode& n) {
    if (!n.alive) return;
    const std::uint32_t key = n.put_key[n.put_next];
    const std::uint32_t seq = ledger_.issue(n.id, key);
    PutRec rec;
    rec.issued = net_->now();
    puts_[n.id].push_back(rec);
    const std::string value = encode_value(key, n.id, seq, kValueBytes);
    if (traced_) {
      const Time w0 = wall_ns();
      n.map->put(keys_[key], value);
      spans_.add(Span::kPut, w0, wall_ns() - w0);
    } else {
      n.map->put(keys_[key], value);
    }
    if (++n.put_next < n.put_at.size()) {
      KvNode* np = &n;
      net_->loop().schedule_at(n.put_at[n.put_next], [this, np] { put_event(*np); });
    }
  }

  void get_event(KvNode& n) {
    if (!n.alive || net_->now() >= t_stop_) return;
    std::array<std::optional<std::string>, kGetBatch> got;
    const std::size_t first = n.get_next;
    if (traced_) {
      for (std::size_t i = 0; i < kGetBatch; ++i) {
        const Time w0 = wall_ns();
        got[i] = n.map->get(keys_[n.get_key[first + i]]);
        spans_.add(Span::kGet, w0, wall_ns() - w0);
      }
    } else {
      // Timed as one batch: the clock read would dominate a single get.
      const Time w0 = wall_ns();
      for (std::size_t i = 0; i < kGetBatch; ++i) {
        got[i] = n.map->get(keys_[n.get_key[first + i]]);
      }
      get_wall_ns_ += static_cast<double>(wall_ns() - w0);
      get_calls_ += kGetBatch;
    }
    n.get_next += kGetBatch;
    for (std::size_t i = 0; i < kGetBatch; ++i) {
      ++checks_.reads;
      if (!got[i]) continue;
      ++checks_.read_hits;
      if (!ledger_.valid_read(n.get_key[first + i], *got[i])) ++checks_.bad_reads;
    }
    KvNode* np = &n;
    net_->loop().schedule_at(net_->now() + kGetEvery, [this, np] { get_event(*np); });
  }

  void lock_event(KvNode& n) {
    // No acquire may wait across the pull: an EPOCH adopted after the
    // fail-over can resurrect an ownership its holder already released
    // (whose grant callback is gone), and every later acquire of that lock
    // then waits forever (seed 1 shows it). Locks run in the warm-up and
    // steady window only, and are all released before the cable is pulled.
    if (!n.alive || net_->now() >= t_pull_ - kLockQuiesce) return;
    const std::uint32_t name = n.lock_name[n.lock_next++];
    const std::size_t idx = lock_recs_.size();
    lock_recs_.push_back(LockRec{n.id, name, net_->now(), -1});
    KvNode* np = &n;
    auto on_grant = [this, np, idx](const std::string& lock) {
      if (!np->alive) return;
      lock_recs_[idx].granted = net_->now();
      oracle_.granted(lock, np->id);
      net_->loop().schedule_at(net_->now() + kLockHold, [this, np, lock] {
        if (!np->alive) return;
        oracle_.released(lock, np->id);
        if (traced_) {
          const Time w0 = wall_ns();
          np->locks->release(lock);
          spans_.add(Span::kRelease, w0, wall_ns() - w0);
        } else {
          np->locks->release(lock);
        }
        if (np->id != kCutNode) ++released_survivors_;
      });
    };
    if (traced_) {
      const Time w0 = wall_ns();
      n.locks->acquire(lock_names_[name], on_grant);
      spans_.add(Span::kAcquire, w0, wall_ns() - w0);
    } else {
      n.locks->acquire(lock_names_[name], on_grant);
    }
    net_->loop().schedule_at(net_->now() + kLockEvery, [this, np] { lock_event(*np); });
  }

  void on_apply(KvNode& n, std::size_t shard, const std::string& key,
                const std::optional<std::string>& value, NodeId origin) {
    const Time w0 = traced_ ? wall_ns() : 0;
    if (!value) return;  // the benchmark never erases
    const auto id = decode_value(*value);
    if (!id || id->key >= kKeys || key != keys_[id->key] || id->writer < 1 ||
        id->writer > kNodes || id->seq >= puts_[id->writer].size() ||
        id->writer != origin) {
      ++checks_.bad_applies;
      return;
    }
    PutRec& p = puts_[id->writer][id->seq];
    p.applied_at = static_cast<std::uint8_t>(p.applied_at | (1u << (n.id - 1)));
    const Time now = net_->now();
    if (now >= t_open_ && now < t_pull_) applies_in_window_ += 1;
    if (n.id == origin && p.acked < 0 && n.alive) {
      p.acked = now;
      if (now >= t_pull_ && origin != kCutNode) {
        acks_after_pull_[shard].push_back(now);
      }
    }
    if (traced_) spans_.add(Span::kHandler, w0, wall_ns() - w0);
  }

  void pull_cable() {
    KvNode& cut = *nodes_[kCutNode - 1];
    net_->set_node_up(kCutNode, false);
    cut.mux->set_enabled(false);
    cut.alive = false;
    oracle_.drop_node(kCutNode);
  }

  /// Every survivor op is complete: puts acked, acquires granted and their
  /// locks released.
  bool settled() const {
    for (NodeId w = 1; w <= kNodes; ++w) {
      if (w == kCutNode) continue;
      for (const PutRec& p : puts_[w]) {
        if (p.acked < 0) return false;
      }
    }
    std::uint64_t granted = 0;
    for (const LockRec& l : lock_recs_) {
      if (l.node == kCutNode) continue;
      if (l.granted < 0) return false;
      ++granted;
    }
    return released_survivors_ >= granted;
  }

  Time failover_gap() const {
    Time worst = 0;
    for (std::size_t s = 0; s < nodes_[0]->plane->shard_count(); ++s) {
      Time prev = t_pull_;
      for (Time t : acks_after_pull_[s]) {
        if (t > t_stop_) break;
        worst = std::max(worst, t - prev);
        prev = t;
      }
      worst = std::max(worst, t_stop_ - prev);
    }
    return worst;
  }

  metrics::Snapshot snapshot() const {
    metrics::Snapshot s;
    for (const auto& n : nodes_) {
      s.merge(n->mux->metrics_snapshot());
      for (std::size_t k = 0; k < n->map->shard_count(); ++k) {
        s.merge(n->map->shard(k).metrics().snapshot());
      }
    }
    return s;
  }

  void check() {
    KvSimChecks& c = checks_;
    for (NodeId w = 1; w <= kNodes; ++w) {
      for (const PutRec& p : puts_[w]) {
        if (w == kCutNode && p.acked < 0) {
          ++c.cut_off;
          continue;
        }
        ++c.attempted;
        if (p.acked < 0) {
          ++c.unacked_puts;
          continue;
        }
        // An acked put must be applied at every survivor.
        const std::uint8_t survivors = 0b0111;
        if ((p.applied_at & survivors) != survivors) ++c.lost_acked_puts;
      }
    }
    for (const LockRec& l : lock_recs_) {
      if (l.node == kCutNode && l.granted < 0) {
        ++c.cut_off;
        continue;
      }
      ++c.attempted;
      if (l.granted < 0) ++c.ungranted_locks;
    }
    c.attempted += c.reads;
    c.lock_violations = oracle_.violations();
    for (std::size_t s = 0; s < nodes_[0]->map->shard_count(); ++s) {
      std::vector<const std::map<std::string, std::string>*> replicas;
      for (const auto& n : nodes_) {
        if (n->alive) replicas.push_back(&n->map->shard(s).contents());
      }
      c.replica_mismatch += replica_mismatches(replicas);
    }
  }

  std::uint64_t seed_;
  KvSimShape shape_;
  bool traced_;
  std::vector<std::string> keys_;
  std::vector<std::string> lock_names_;
  std::unique_ptr<net::SimNetwork> net_;
  std::vector<std::unique_ptr<KvNode>> nodes_;
  PutLedger ledger_;
  std::array<std::vector<PutRec>, kNodes + 1> puts_;
  std::vector<LockRec> lock_recs_;
  std::uint64_t released_survivors_ = 0;
  LockOracle oracle_;
  std::array<std::vector<Time>, 16> acks_after_pull_;
  double applies_in_window_ = 0;
  double window_applies_ = 0;
  double get_wall_ns_ = 0;
  std::uint64_t get_calls_ = 0;
  double setup_s_ = 0;
  Time t_start_ = 0, t_open_ = 0, t_pull_ = 0, t_stop_ = 0;
  SpanLog spans_;
  Samples put_samples_, lock_samples_;
  KvSimVirtual virt_;
  KvSimWall wall_;
  KvSimLayer layer_;
  KvSimChecks checks_;
};

}  // namespace

KvSimVirtual run_kv_sim_once(std::uint64_t seed, const KvSimShape& shape) {
  KvSim sim(seed, shape, false);
  if (!sim.setup()) return {};
  sim.run();
  return sim.virt();
}

void run_kv_sim(const RunArgs& args, Report& rep) {
  const KvSimShape shape;
  rep.line("workload kv-sim: 4 SessionMux nodes x K=4 ShardedDataPlane rings "
           "on SimNetwork (100 us one-way, no loss), raincored default ring "
           "knobs, WAL off; per node per virtual s: %.0f puts, %zu gets, %lld "
           "lock acquires; %lld ms warm-up, %lld ms steady window, then node "
           "%u's cable is pulled for %lld ms (virtual clock)",
           kPutsPerS, kGetBatch * static_cast<std::size_t>(seconds(1) / kGetEvery),
           static_cast<long long>(seconds(1) / kLockEvery),
           static_cast<long long>(shape.warmup_ms),
           static_cast<long long>(shape.steady_ms), kCutNode,
           static_cast<long long>(shape.failover_ms));
  // Repetitions of the same seed until --seconds of wall time have passed;
  // a traced run alternates untraced and traced repetitions.
  const std::size_t min_reps = args.trace ? 4 : 3;
  constexpr std::size_t kMaxReps = 40;
  const Time deadline = wall_ns() + seconds(args.seconds);
  std::unique_ptr<KvSim> first, last_traced;
  std::vector<double> setup_s, cpu_plain, cpu_traced, get_ns;
  std::vector<double> put_ns, acq_ns, handler_ns, loop_frac;
  std::string rep_cpu;  // per untraced repetition, for the report
  while (setup_s.size() < min_reps ||
         (wall_ns() < deadline && setup_s.size() < kMaxReps)) {
    const bool traced = args.trace && setup_s.size() % 2 == 1;
    auto sim = std::make_unique<KvSim>(args.seed, shape, traced);
    if (!sim->setup()) {
      rep.attempted(1);
      rep.fail(1, "kv-sim cluster did not converge");
      return;
    }
    sim->run();
    const KvSimWall& w = sim->wall();
    setup_s.push_back(w.setup_s);
    if (traced) {
      cpu_traced.insert(cpu_traced.end(), w.slice_cpu_us_per_op.begin(),
                        w.slice_cpu_us_per_op.end());
      put_ns.push_back(w.put_call_ns);
      acq_ns.push_back(w.acquire_call_ns);
      handler_ns.push_back(w.handler_ns);
      loop_frac.push_back(w.loop_cpu_frac);
    } else {
      cpu_plain.insert(cpu_plain.end(), w.slice_cpu_us_per_op.begin(),
                       w.slice_cpu_us_per_op.end());
      char buf[32];
      std::snprintf(buf, sizeof(buf), rep_cpu.empty() ? "%.2f" : " %.2f",
                    median(w.slice_cpu_us_per_op));
      rep_cpu += buf;
      get_ns.push_back(w.get_ns);
    }
    if (first && sim->virt() != first->virt()) {
      rep.fail(1, "repetition %zu of seed %llu differs from the first in its "
                  "virtual-time results or counters",
               setup_s.size(), static_cast<unsigned long long>(args.seed));
    }
    if (!first) {
      first = std::move(sim);
    } else if (traced) {
      last_traced = std::move(sim);
    }
  }
  KvSim& ref = *first;
  const KvSimChecks& c = ref.checks();
  rep.attempted(c.attempted);
  rep.failed(c.unacked_puts + c.ungranted_locks);
  if (c.unacked_puts) rep.fail(0, "%llu survivor puts never acked",
                               static_cast<unsigned long long>(c.unacked_puts));
  if (c.ungranted_locks) rep.fail(0, "%llu survivor acquires never granted",
                                  static_cast<unsigned long long>(c.ungranted_locks));
  if (c.lost_acked_puts) rep.fail(c.lost_acked_puts, "%llu acked puts missing at a survivor",
                                  static_cast<unsigned long long>(c.lost_acked_puts));
  if (c.replica_mismatch) rep.fail(c.replica_mismatch, "%llu survivor replicas differ",
                                   static_cast<unsigned long long>(c.replica_mismatch));
  if (c.lock_violations) rep.fail(c.lock_violations, "%llu grants while another node held the lock",
                                  static_cast<unsigned long long>(c.lock_violations));
  if (c.bad_reads) rep.fail(c.bad_reads, "%llu gets returned a value no put wrote for that key",
                            static_cast<unsigned long long>(c.bad_reads));
  if (c.bad_applies) rep.fail(c.bad_applies, "%llu applies carried a malformed value",
                              static_cast<unsigned long long>(c.bad_applies));
  rep.line("checks (after the drain): survivor replicas identical per shard, "
           "no acked put lost across the pull, at most one holder per grant, "
           "every get returned a written value (%llu gets, %llu hits), %zu "
           "repetitions bit-identical: %s; %llu ops of node %u open at the "
           "pull excluded",
           static_cast<unsigned long long>(c.reads),
           static_cast<unsigned long long>(c.read_hits), setup_s.size(),
           rep.correct() ? "ok" : "FAILED",
           static_cast<unsigned long long>(c.cut_off), kCutNode);

  Samples& puts = ref.put_samples();
  Samples& locks = ref.lock_samples();
  const double gap_ms = ref.virt().failover_gap_ns / 1e6;
  rep.set("op_p50_ms", puts.quantile(0.5) / 1e6);
  rep.set("op_p90_ms", puts.quantile(0.9) / 1e6);
  rep.set("cpu_us_per_op", median(cpu_plain));
  rep.set("setup_s", median(setup_s));
  rep.line("put_ack_sim_ms (virtual, put() -> the origin's change handler "
           "sees it applied): %s", puts.summary(1e6, "ms").c_str());
  rep.line("lock_grant_sim_ms (virtual, acquire() -> GrantFn): %s",
           locks.summary(1e6, "ms").c_str());
  rep.line("put_ack_p50_sim_ms = %.4f, put_ack_p90_sim_ms = %.4f  [reported "
           "as op_p50_ms / op_p90_ms]; put_ack_p99_sim_ms = %.4f; "
           "lock_grant_p50_sim_ms = %.4f, lock_grant_p99_sim_ms = %.4f; "
           "failover_gap_sim_ms = %.4f",
           puts.quantile(0.5) / 1e6, puts.quantile(0.9) / 1e6,
           puts.quantile(0.99) / 1e6,
           locks.quantile(0.5) / 1e6, locks.quantile(0.99) / 1e6, gap_ms);
  rep.line("cpu_us_per_op = %.4f us (median over %zu slices of %lld ms "
           "virtual in the steady windows of the untraced repetitions: "
           "getrusage user+sys / (acked puts + granted locks); per "
           "repetition [%s]); get_ns = %.2f ns (mean, timed in batches of "
           "%zu); setup_s = %.4f s (median of %zu)",
           median(cpu_plain), cpu_plain.size(),
           static_cast<long long>(kSlice / kNanosPerMilli), rep_cpu.c_str(),
           median(get_ns),
           kGetBatch, median(setup_s), setup_s.size());
  rep.set("get_ns", median(get_ns));
  rep.set("lock_grant_p50_sim_ms", locks.quantile(0.5) / 1e6);
  rep.set("lock_grant_p99_sim_ms", locks.quantile(0.99) / 1e6);
  rep.set("failover_gap_sim_ms", gap_ms);

  if (args.trace && last_traced) {
    const KvSimLayer& l = ref.layer();
    rep.set("cpu.thread_covered_frac", median(loop_frac));
    rep.set("sim.loop_cpu_frac", median(loop_frac));
    rep.set("transport.frames_per_op", l.frames_per_op);
    rep.set("transport.wakeups_per_node_s", l.wakeups_per_node_s);
    rep.set("transport.retries_per_kop", l.retries_per_kop);
    rep.set("transport.ack_p50_us", l.ack_p50_us);
    rep.set("session.msgs_per_batch", l.msgs_per_batch);
    rep.set("session.token_hops_per_s", l.token_hops_per_s);
    rep.set("session.rotation_p50_ms", l.rotation_p50_ms);
    rep.set("session.rotation_p99_ms", l.rotation_p99_ms);
    rep.set("session.eating_dwell_p50_ms", l.eating_dwell_p50_ms);
    rep.set("session.backpressure_stalls", l.backpressure_stalls);
    rep.set("session.view_changes", l.view_changes);
    rep.set("session.911_rounds", l.rounds_911);
    rep.set("data.put_call_ns", median(put_ns));
    rep.set("data.acquire_call_ns", median(acq_ns));
    rep.set("data.applies_per_put", l.applies_per_put);
    rep.set("sim.pkts_per_op", l.pkts_per_op);
    rep.set("gen.offered_ratio", l.offered_ratio);
    rep.set("bench.handler_ns", median(handler_ns));
    rep.set("trace.overhead_frac",
            per(median(cpu_traced), median(cpu_plain)) - 1.0);
    rep.line("per-layer virtual counts are per repetition; view changes and "
             "911 rounds are counted over the fail-over phase, every other "
             "count over the steady window");
    if (!args.trace_dir.empty()) {
      std::vector<SpanLog> logs;
      logs.push_back(std::move(last_traced->spans()));
      const std::string path = args.trace_dir + "/kv-sim-seed" +
                               std::to_string(args.seed) + ".spans.csv";
      if (write_spans(path, logs)) rep.line("spans written to %s", path.c_str());
    }
  }
}

}  // namespace perfbench
