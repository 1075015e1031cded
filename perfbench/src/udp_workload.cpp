// udp-small and udp-journal-1k: four runtime::ThreadedNode members in this
// process, each with its own kernel UDP socket on loopback, an epoll I/O
// thread and one worker per ring (K = 4 rings), exactly as four raincored
// processes would run on one host. Ring knobs are raincored's defaults
// (runtime::RaincoredConfig{}).
//
// Load is an open loop: one producer per (node, ring) source, a ticker on
// that ring's worker loop (no thread or socket of the benchmark's own).
// Message i of a source is due at a fixed instant of the Timeline; each
// wake sends every message already due, so a stall makes later messages
// late instead of shrinking the offered load. Latency runs from the due
// time to the agreed delivery at the last member.
#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "checks.h"
#include "counters.h"
#include "common/rng.h"
#include "common/metrics.h"
#include "runtime/raincored_config.h"
#include "runtime/threaded_node.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace raincore;

constexpr std::size_t kNodes = 4;
constexpr int kSetups = 5;
const Time kWarmup = seconds(1);
const Time kStartDelay = millis(50);
const Time kConvergeTimeout = seconds(30);
const Time kDrainTimeout = seconds(10);

struct UdpSpec {
  const char* name;
  std::int64_t rate;     ///< aggregate msgs/s over all sources
  std::size_t payload;   ///< bytes per message
  bool journal;          ///< benchmark-side WAL append per delivery
};

constexpr UdpSpec kSpecs[] = {
    {"udp-small", 100000, 64, false},
    {"udp-journal-1k", 2000, 1024, true},
};

// Everything one (member, ring) worker thread writes while the cluster
// runs: that thread is the only writer, the main thread reads the atomics
// while it runs and the rest after the workers have been joined.
struct alignas(64) MemberRing {
  std::array<SeqLog, kNodes> from;  ///< per origin (index origin - 1)
  std::uint64_t order = kOrderSeed;
  std::uint64_t malformed = 0;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::size_t> view_size{0};
  /// This worker's spans: its deliveries and its source's submits.
  SpanLog spans;
  /// Benchmark-side delivery journal (udp-journal-1k).
  std::unique_ptr<storage::ShardStore> store;
};

struct Source {
  std::size_t idx = 0;
  std::size_t slot = 0;  ///< this source's place in the Timeline interleave
  NodeId node = 0;
  std::size_t ring = 0;
  std::uint64_t next = 0;
  std::uint64_t end = 0;  ///< messages [0, end) are sent
  std::vector<bool> accepted;
  std::uint64_t refused = 0;
  Samples late_ns;  ///< wake - due, for messages due in the window
  std::atomic<std::uint64_t> accepted_count{0};
  std::atomic<bool> done{false};

  // Fixed before the first tick.
  const Timeline* tl = nullptr;
  const UdpSpec* spec = nullptr;
  MemberRing* mine = nullptr;
  const std::atomic<bool>* tracing = nullptr;
  session::SessionNode* r = nullptr;
  Time open = 0;
  Time close = 0;

  void tick() {
    const Time now = r->env().now();
    const bool traced = tracing->load(std::memory_order_relaxed);
    while (next < end) {
      const Time due = tl->due(slot, next);
      if (due > now) break;
      ByteWriter w(spec->payload);
      w.u64(static_cast<std::uint64_t>(due));
      w.u32(node);
      w.u32(static_cast<std::uint32_t>(ring));
      w.u64(next);
      Bytes b = w.take();
      b.resize(spec->payload, 0);
      bool ok = false;
      if (traced) {
        const Time t0 = wall_ns();
        ok = r->try_multicast(std::move(b)).has_value();
        mine->spans.add(Span::kSubmit, t0, wall_ns() - t0);
      } else {
        ok = r->try_multicast(std::move(b)).has_value();
      }
      if (!ok) {
        accepted[next] = false;
        ++refused;
      }
      if (due >= open && due < close) late_ns.add(static_cast<double>(now - due));
      ++next;
    }
    accepted_count.store(next - refused, std::memory_order_release);
    if (next < end) {
      const Time wait = tl->due(slot, next) - now;
      r->env().schedule(wait > 0 ? wait : 0, [this] { tick(); });
    } else {
      done.store(true, std::memory_order_release);
    }
  }
};

/// One cluster: nodes, the member-ring records its handlers write, and the
/// benchmark-side journals.
struct Cluster {
  std::vector<std::unique_ptr<runtime::ThreadedNode>> nodes;
  std::vector<std::unique_ptr<MemberRing>> mr;  ///< [member][ring] flattened
  std::size_t shards = 0;

  MemberRing& at(std::size_t member, std::size_t ring) {
    return *mr[member * shards + ring];
  }
  void stop() {
    for (auto& n : nodes) n->stop();
  }
};

void wait_until(Time deadline_ns) {
  const Time now = wall_ns();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

runtime::ThreadedNodeConfig node_config(NodeId id) {
  runtime::RaincoredConfig rc;  // raincored's defaults: the deployed knobs
  rc.node = id;
  for (NodeId p = 1; p <= kNodes; ++p) {
    if (p != id) rc.peers.push_back({p, "127.0.0.1", 0});
  }
  runtime::ThreadedNodeConfig nc = rc.to_node_config();
  // ThreadedNode's own journal is the ring's deliver handler, which the
  // benchmark's handler would replace; udp-journal-1k journals itself.
  nc.storage.dir.clear();
  return nc;
}

/// Builds, starts and converges a cluster; returns false on a timeout.
bool build_cluster(const UdpSpec& spec, Cluster& c, const std::string& wal_dir,
                   std::size_t reserve_per_origin,
                   const std::atomic<bool>& tracing, std::string& err) {
  for (NodeId id = 1; id <= kNodes; ++id) {
    c.nodes.push_back(std::make_unique<runtime::ThreadedNode>(node_config(id)));
  }
  c.shards = c.nodes[0]->shard_count();
  for (auto& a : c.nodes) {
    for (auto& b : c.nodes) {
      if (a->node() != b->node()) {
        a->add_peer(b->node(), 0, "127.0.0.1", b->port(0));
      }
    }
  }
  // raincored's StorageConfig, except that the WAL syncs once per
  // compaction cycle instead of every 8 appends: fdatasync latency on a
  // shared disk swung this workload's median by 70% between runs minutes
  // apart, so the WAL append (record encode + checksum) and compaction stay
  // on the delivery path while the per-append fdatasync does not.
  storage::StorageConfig store_cfg =
      runtime::RaincoredConfig{}.to_node_config().storage;
  store_cfg.fsync_every = store_cfg.snapshot_every;
  for (std::size_t m = 0; m < kNodes; ++m) {
    for (std::size_t k = 0; k < c.shards; ++k) {
      auto rec = std::make_unique<MemberRing>();
      for (auto& log : rec->from) log.reserve(reserve_per_origin);
      if (spec.journal) {
        storage::StorageConfig sc = store_cfg;
        sc.dir = wal_dir + "/n" + std::to_string(m + 1);
        rec->store = std::make_unique<storage::ShardStore>(
            sc, sc.dir + "/shard" + std::to_string(k),
            "shard" + std::to_string(k) + ".");
        storage::ShardStore::Hooks hooks;
        hooks.begin_recovery = [] {};
        hooks.snapshot = [] { return Bytes{}; };
        hooks.load_snapshot = [](ByteReader&) {};
        hooks.replay = [](ByteReader&) {};
        rec->store->attach(1, std::move(hooks));
        if (!rec->store->open()) {
          err = "cannot open a WAL under " + sc.dir;
          return false;
        }
      }
      MemberRing* mrp = rec.get();
      session::SessionNode& ring = c.nodes[m]->ring_unsafe(k);
      ring.set_view_handler([mrp](const session::View& v) {
        mrp->view_size.store(v.members.size(), std::memory_order_release);
      });
      ring.set_deliver_handler([mrp, k, &tracing](NodeId origin,
                                                  const Slice& p,
                                                  session::Ordering o) {
        const Time t = wall_ns();
        const bool traced = tracing.load(std::memory_order_relaxed);
        ByteReader r(p);
        r.u64();  // due time: recomputed from the Timeline
        const NodeId src = r.u32();
        const std::uint32_t src_ring = r.u32();
        const std::uint64_t idx = r.u64();
        if (!r.ok() || o != session::Ordering::kAgreed || src != origin ||
            origin < 1 || origin > kNodes || src_ring != k) {
          ++mrp->malformed;
        } else {
          mrp->from[origin - 1].append(idx, t);
          mrp->order = order_step(mrp->order, origin, idx);
        }
        Time append_ns = 0;
        if (mrp->store) {
          // The same record ThreadedNode's journal writes: u32 origin +
          // length-prefixed payload, stream 1, on this worker's thread.
          ByteWriter w(p.size() + 8);
          w.u32(origin);
          w.bytes(p);
          const Time a0 = traced ? wall_ns() : 0;
          mrp->store->append(1, w.take());
          if (traced) {
            append_ns = wall_ns() - a0;
            mrp->spans.add(Span::kAppend, a0, append_ns);
          }
        }
        mrp->delivered.fetch_add(1, std::memory_order_release);
        if (traced) mrp->spans.add(Span::kHandler, t, wall_ns() - t - append_ns);
      });
      c.mr.push_back(std::move(rec));
    }
  }
  for (auto& n : c.nodes) n->start();
  for (auto& n : c.nodes) n->found_all();
  const Time deadline = wall_ns() + kConvergeTimeout;
  while (wall_ns() < deadline) {
    bool all = true;
    for (auto& rec : c.mr) {
      all = all && rec->view_size.load(std::memory_order_acquire) == kNodes;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  err = "rings did not converge within 30 s";
  return false;
}

struct Reading {
  Time at = 0;
  Time proc_cpu = 0;
  metrics::Snapshot snap;
  std::vector<Time> io_cpu;
  std::vector<Time> worker_cpu;
};

Reading take_reading(Cluster& c, bool thread_cpu) {
  Reading r;
  if (thread_cpu) {
    for (auto& n : c.nodes) {
      std::promise<Time> p;
      auto f = p.get_future();
      n->io_loop().post([&p] { p.set_value(thread_cpu_ns()); });
      r.io_cpu.push_back(f.get());
      for (std::size_t k = 0; k < c.shards; ++k) {
        Time v = 0;
        n->run_on_shard(k, [&v](session::SessionNode&) { v = thread_cpu_ns(); });
        r.worker_cpu.push_back(v);
      }
    }
  }
  r.at = wall_ns();
  r.proc_cpu = process_cpu_ns();
  for (auto& n : c.nodes) r.snap.merge(n->metrics_snapshot());
  for (auto& rec : c.mr) {
    if (rec->store) r.snap.merge(rec->store->metrics().snapshot());
  }
  return r;
}

}  // namespace

void run_udp(const RunArgs& args, Report& rep) {
  const UdpSpec* spec = nullptr;
  for (const UdpSpec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  const std::string wal_root = args.workdir + "/wal";
  rep.line("workload %s: 4 runtime::ThreadedNode x K rings over loopback UDP, "
           "raincored default ring knobs, open loop %lld msgs/s aggregate, "
           "%zu B payloads, %d s window after %.1f s warm-up (wall clock)",
           spec->name, static_cast<long long>(spec->rate), spec->payload,
           args.seconds, to_seconds(kWarmup));
  if (spec->journal) {
    rep.line("journal: SUBSTITUTED. ThreadedNode installs its WAL journal as "
             "the ring's deliver handler and set_deliver_handler replaces it, "
             "so this benchmark appends u32 origin + payload (stream 1) to its "
             "own storage::ShardStore per (node, ring) from the worker thread, "
             "with raincored's default StorageConfig except fsync_every = "
             "snapshot_every (the WAL syncs once per compaction)");
  }

  std::atomic<bool> tracing{false};
  std::vector<double> setup_s;
  std::string err;
  // Set-up is measured kSetups times; the last cluster carries the load.
  std::unique_ptr<Cluster> c;
  const double n_expected_sources = kNodes * runtime::RaincoredConfig{}.shards;
  const std::size_t per_source_msgs = static_cast<std::size_t>(
      (to_seconds(kWarmup + kStartDelay) + args.seconds) *
          static_cast<double>(spec->rate) / n_expected_sources +
      16);
  for (int s = 0; s < kSetups; ++s) {
    const bool last = s == kSetups - 1;
    if (c) {
      c->stop();
      c.reset();
    }
    auto fresh = std::make_unique<Cluster>();
    const Time t_a = wall_ns();
    if (!build_cluster(*spec, *fresh, wal_root + "/setup" + std::to_string(s),
                       last ? per_source_msgs : 0, tracing, err)) {
      rep.fail(1, "%s", err.c_str());
      fresh->stop();
      rep.attempted(1);
      return;
    }
    setup_s.push_back(to_seconds(wall_ns() - t_a));
    c = std::move(fresh);
  }
  rep.set("setup_s", median(setup_s));
  std::string each;
  for (double v : setup_s) each += (each.empty() ? "" : " / ") + std::to_string(v);
  rep.line("setup: %d clusters formed in %s s (construct -> every ring on "
           "every node has 4 members); median %.4f s",
           kSetups, each.c_str(), median(setup_s));

  const std::size_t shards = c->shards;
  const std::size_t n_sources = kNodes * shards;
  Timeline tl;
  tl.t0 = wall_ns() + kStartDelay;
  tl.rate = spec->rate;
  tl.sources = n_sources;
  const Time open = tl.t0 + kWarmup;
  const Time close = open + seconds(args.seconds);
  const Time mid = open + (close - open) / 2;

  // The seed picks which source takes which place in the interleave.
  std::vector<std::size_t> slots(n_sources);
  for (std::size_t i = 0; i < n_sources; ++i) slots[i] = i;
  Rng rng(args.seed);
  for (std::size_t i = n_sources; i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  }
  std::vector<std::unique_ptr<Source>> sources;
  std::uint64_t attempted = 0;
  for (std::size_t m = 0; m < kNodes; ++m) {
    for (std::size_t k = 0; k < shards; ++k) {
      auto src = std::make_unique<Source>();
      src->idx = m * shards + k;
      src->slot = slots[src->idx];
      src->node = static_cast<NodeId>(m + 1);
      src->ring = k;
      src->end = tl.count_before(src->slot, close);
      src->accepted.assign(src->end, true);
      src->tl = &tl;
      src->spec = spec;
      src->mine = &c->at(m, k);
      src->tracing = &tracing;
      src->open = open;
      src->close = close;
      attempted += src->end;
      sources.push_back(std::move(src));
    }
  }
  for (auto& src : sources) {
    Source* sp = src.get();
    c->nodes[sp->node - 1]->post_to_shard(
        sp->ring, [sp](session::SessionNode& r) {
          sp->r = &r;
          const Time wait = sp->tl->due(sp->slot, 0) - r.env().now();
          r.env().schedule(wait > 0 ? wait : 0, [sp] { sp->tick(); });
        });
  }

  // Process CPU is also marked once per second: cpu_us_per_op is the
  // median over these one-second slices, so a short burst of contention
  // from outside the process moves one slice, not the figure.
  std::vector<std::pair<Time, Time>> marks;  // (wall, process CPU)
  Reading r0, rm, r1;
  for (int j = 0; j <= args.seconds; ++j) {
    const Time at = open + seconds(j);
    if (args.trace && at > mid && rm.at == 0) {
      wait_until(mid);
      rm = take_reading(*c, true);
      tracing.store(true, std::memory_order_relaxed);
    }
    wait_until(at);
    if (j == 0) r0 = take_reading(*c, args.trace);
    if (j == args.seconds) r1 = take_reading(*c, args.trace);
    marks.emplace_back(wall_ns(), process_cpu_ns());
  }
  tracing.store(false, std::memory_order_relaxed);

  // Drain: every accepted message delivered at every member.
  const Time drain_deadline = wall_ns() + kDrainTimeout;
  bool drained = false;
  while (!drained && wall_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    drained = true;
    std::vector<std::uint64_t> expect(shards, 0);
    for (auto& src : sources) {
      drained = drained && src->done.load(std::memory_order_acquire);
      expect[src->ring] += src->accepted_count.load(std::memory_order_acquire);
    }
    for (std::size_t m = 0; m < kNodes && drained; ++m) {
      for (std::size_t k = 0; k < shards; ++k) {
        drained = drained && c->at(m, k).delivered.load(
                                 std::memory_order_acquire) >= expect[k];
      }
    }
  }
  if (spec->journal) {
    for (std::size_t m = 0; m < kNodes; ++m) {
      for (std::size_t k = 0; k < shards; ++k) {
        storage::ShardStore* st = c->at(m, k).store.get();
        c->nodes[m]->run_on_shard(k, [st](session::SessionNode&) { st->flush(); });
      }
    }
  }
  const metrics::Snapshot final_snap = take_reading(*c, false).snap;
  c->stop();  // joins every thread: the records below are now quiescent

  // --- checks -------------------------------------------------------------
  rep.attempted(attempted);
  std::uint64_t refused = 0;
  for (auto& src : sources) refused += src->refused;
  if (refused > 0) {
    rep.failed(refused);
    rep.line("refused by backpressure: %llu", static_cast<unsigned long long>(refused));
  }
  if (!drained) rep.fail(0, "drain timed out after %.0f s", to_seconds(kDrainTimeout));
  StreamViolations v;
  std::uint64_t malformed = 0, order_mismatch = 0;
  for (std::size_t m = 0; m < kNodes; ++m) {
    for (std::size_t k = 0; k < shards; ++k) malformed += c->at(m, k).malformed;
  }
  for (std::size_t k = 0; k < shards; ++k) {
    for (std::size_t m = 1; m < kNodes; ++m) {
      if (c->at(m, k).order != c->at(0, k).order) ++order_mismatch;
    }
  }
  // Fast path: a clean log holding every message of a source that had no
  // refusal is exactly the accepted stream.
  std::vector<bool> intact(sources.size(), true);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const Source& src = *sources[s];
    for (std::size_t m = 0; m < kNodes; ++m) {
      const SeqLog& log = c->at(m, src.ring).from[src.node - 1];
      if (log.clean() && src.refused == 0 && log.size() == src.end) continue;
      const std::uint64_t before = v.total();
      check_stream(src.accepted, log.indices(), v);
      if (v.total() != before) intact[s] = false;
    }
  }
  if (v.total() > 0) {
    rep.fail(v.total(),
             "agreed delivery: %llu lost, %llu duplicated, %llu reordered, "
             "%llu never sent",
             static_cast<unsigned long long>(v.lost),
             static_cast<unsigned long long>(v.duplicated),
             static_cast<unsigned long long>(v.reordered),
             static_cast<unsigned long long>(v.phantom));
  }
  if (malformed > 0) rep.fail(malformed, "%llu malformed deliveries",
                              static_cast<unsigned long long>(malformed));
  if (order_mismatch > 0) {
    rep.fail(order_mismatch,
             "%llu (member, ring) agreed sequences differ from member 1's",
             static_cast<unsigned long long>(order_mismatch));
  }
  rep.line("checks: every accepted message delivered exactly once at every "
           "member in per-origin order, and each ring's agreed (origin, seq) "
           "sequence identical at all members: %s",
           v.total() + malformed + order_mismatch == 0 && drained ? "ok"
                                                                  : "FAILED");

  // --- latency and ops ----------------------------------------------------
  Samples lat;
  lat.reserve(static_cast<std::size_t>(spec->rate) *
              static_cast<std::size_t>(args.seconds + 1));
  std::uint64_t ops = 0, ops_a = 0, ops_b = 0;
  std::vector<double> slice_ops(marks.size() - 1, 0.0);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (!intact[s]) continue;  // already failed above
    const Source* src = sources[s].get();
    // Every member's log holds exactly the accepted messages in index
    // order, so position p is the p-th accepted message.
    std::vector<std::uint64_t> index;
    if (src->refused > 0) {
      for (std::uint64_t i = 0; i < src->end; ++i) {
        if (src->accepted[i]) index.push_back(i);
      }
    }
    for (std::uint64_t p = 0; p < src->end - src->refused; ++p) {
      const std::uint64_t i = src->refused > 0 ? index[p] : p;
      Time last = 0;
      for (std::size_t m = 0; m < kNodes; ++m) {
        last = std::max(last, c->at(m, src->ring).from[src->node - 1].at(p));
      }
      const Time due = tl.due(src->slot, i);
      if (due >= open && due < close) lat.add(static_cast<double>(last - due));
      if (last >= r0.at && last < r1.at) ++ops;
      auto slice = std::upper_bound(
          marks.begin(), marks.end(), last,
          [](Time t, const std::pair<Time, Time>& m) { return t < m.first; });
      if (slice != marks.begin() && slice != marks.end()) {
        ++slice_ops[static_cast<std::size_t>(slice - marks.begin()) - 1];
      }
      if (args.trace) {
        if (last >= r0.at && last < rm.at) ++ops_a;
        if (last >= rm.at && last < r1.at) ++ops_b;
      }
    }
  }
  const double window_s = to_seconds(r1.at - r0.at);
  const double cpu_ns = static_cast<double>(r1.proc_cpu - r0.proc_cpu);
  rep.set("op_p50_ms", lat.quantile(0.5) / 1e6);
  rep.set("op_p90_ms", lat.quantile(0.9) / 1e6);
  // A traced run takes CPU per op from its untraced first half only.
  std::vector<double> slice_cpu;
  for (std::size_t j = 0; j + 1 < marks.size(); ++j) {
    if (args.trace && marks[j + 1].first > rm.at) break;
    slice_cpu.push_back(per(
        static_cast<double>(marks[j + 1].second - marks[j].second) / 1e3,
        slice_ops[j]));
  }
  rep.set("cpu_us_per_op", median(slice_cpu));
  rep.line("deliver_ms (wall, due -> agreed delivery at the last member, "
           "messages due in the window): %s",
           lat.summary(1e6, "ms").c_str());
  rep.line("deliver_p50_ms = %.4f ms, deliver_p90_ms = %.4f ms  [reported as "
           "op_p50_ms / op_p90_ms]; deliver_p99_ms = %.4f ms",
           lat.quantile(0.5) / 1e6, lat.quantile(0.9) / 1e6,
           lat.quantile(0.99) / 1e6);
  std::string slices;
  for (double x : slice_cpu) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), slices.empty() ? "%.3f" : " %.3f", x);
    slices += buf;
  }
  rep.line("cpu_us_per_op = %.4f us: median of one-second slices [%s] of "
           "getrusage user+sys / messages delivered at every member; whole "
           "window %.3f CPU-s over %.3f s = %.3f cores busy, %.4f us/msg",
           median(slice_cpu), slices.c_str(), cpu_ns / 1e9, window_s,
           cpu_ns / 1e9 / window_s, per(cpu_ns / 1e3, static_cast<double>(ops)));

  Samples late;
  std::uint64_t due_in_window = 0;
  for (auto& src : sources) {
    late.merge(src->late_ns);
    due_in_window += src->late_ns.count();
  }
  const double nominal = static_cast<double>(spec->rate);
  const double achieved = static_cast<double>(ops) / window_s;
  rep.line("generator: nominal %.0f msgs/s, %llu due in the window (%.1f/s); "
           "delivered-at-all in the window %.1f/s; lateness %s",
           nominal, static_cast<unsigned long long>(due_in_window),
           static_cast<double>(due_in_window) / to_seconds(close - open),
           achieved, late.summary(1e6, "ms").c_str());
  rep.set("gen.late_p99_ms", late.quantile(0.99) / 1e6);
  rep.set("gen.offered_ratio", achieved / nominal);

  // --- per-layer (traced half of the window) ------------------------------
  if (args.trace) {
    const Reading& a = rm;
    const Reading& b = r1;
    const double ops_d = static_cast<double>(ops_b);
    const double half_s = to_seconds(b.at - a.at);
    const metrics::Snapshot d = b.snap.diff(a.snap);
    double io = 0, worker = 0;
    for (std::size_t i = 0; i < a.io_cpu.size(); ++i) io += b.io_cpu[i] - a.io_cpu[i];
    for (std::size_t i = 0; i < a.worker_cpu.size(); ++i) {
      worker += b.worker_cpu[i] - a.worker_cpu[i];
    }
    const double proc = static_cast<double>(b.proc_cpu - a.proc_cpu);
    const double untraced_proc = static_cast<double>(a.proc_cpu - r0.proc_cpu);
    rep.set("io.cpu_us_per_op", per(io / 1e3, ops_d));
    rep.set("worker.cpu_us_per_op", per(worker / 1e3, ops_d));
    rep.set("cpu.thread_covered_frac", per(io + worker, proc));
    rep.set("runtime.proxy_drops",
            static_cast<double>(counter_sum(d, "runtime.proxy.cmd_dropped") +
                                counter_sum(d, "runtime.proxy.inbound_dropped") +
                                counter_sum(d, "runtime.proxy.event_dropped")));
    rep.set("runtime.proxy_retries",
            static_cast<double>(counter_sum(d, "runtime.proxy.event_retries")));
    rep.set("transport.frames_per_op",
            per(static_cast<double>(counter_sum(d, "transport.frames_out")), ops_d));
    rep.set("transport.wakeups_per_node_s",
            per(static_cast<double>(counter_sum(d, "transport.task_switches")),
                kNodes * half_s));
    rep.set("transport.retries_per_kop",
            per(1e3 * static_cast<double>(counter_sum(d, "transport.retries")),
                ops_d));
    rep.set("transport.ack_p50_us",
            hist_quantile(b.snap, "transport.ack_latency_ns",
                          &metrics::HistStat::p50) / 1e3);
    std::vector<SpanLog> logs;
    for (auto& rec : c->mr) logs.push_back(std::move(rec->spans));
    rep.set("session.submit_ns", merged(logs, Span::kSubmit).mean());
    rep.set("session.msgs_per_batch",
            per(static_cast<double>(counter_sum(d, "session.batch.msgs")),
                static_cast<double>(counter_sum(d, "session.batch.attached"))));
    rep.set("session.token_hops_per_s",
            per(static_cast<double>(counter_sum(d, "session.token.passed")), half_s));
    rep.set("session.rotation_p50_ms",
            hist_quantile(b.snap, "session.token.rotation_ns",
                          &metrics::HistStat::p50) / 1e6);
    rep.set("session.rotation_p99_ms",
            hist_quantile(b.snap, "session.token.rotation_ns",
                          &metrics::HistStat::p99) / 1e6);
    rep.set("session.eating_dwell_p50_ms",
            hist_quantile(b.snap, "session.state.eating_dwell_ns",
                          &metrics::HistStat::p50) / 1e6);
    rep.set("session.backpressure_stalls",
            static_cast<double>(counter_sum(d, "session.backpressure_stalls")));
    rep.set("session.view_changes",
            static_cast<double>(counter_sum(d, "session.view_changes")));
    rep.set("session.911_rounds",
            static_cast<double>(counter_sum(d, "session.911.rounds")));
    Samples append = merged(logs, Span::kAppend);
    rep.set("storage.append_us_p50", append.quantile(0.5) / 1e3);
    rep.set("storage.append_us_p99", append.quantile(0.99) / 1e3);
    rep.set("storage.fsyncs_per_op",
            per(static_cast<double>(counter_sum(d, "storage.wal.fsyncs")), ops_d));
    rep.set("bench.handler_ns", merged(logs, Span::kHandler).mean());
    const double traced_cpu = per(proc, ops_d);
    const double untraced_cpu = per(untraced_proc, static_cast<double>(ops_a));
    rep.set("trace.overhead_frac", per(traced_cpu, untraced_cpu) - 1.0);
    rep.line("traced half: %.3f s, %llu ops; io %.3f + worker %.3f of %.3f "
             "process CPU-s; untraced half %.4f vs traced %.4f CPU-us/op",
             half_s, static_cast<unsigned long long>(ops_b), io / 1e9,
             worker / 1e9, proc / 1e9, untraced_cpu / 1e3, traced_cpu / 1e3);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + spec->name + "-seed" +
                               std::to_string(args.seed) + ".spans.csv";
      if (write_spans(path, logs)) rep.line("spans written to %s", path.c_str());
    }
  }
  rep.line("program counters over the run (all nodes): frames_out %llu, "
           "retries %llu, 911 rounds %llu, view changes %llu, proxy drops %llu",
           static_cast<unsigned long long>(counter_sum(final_snap, "transport.frames_out")),
           static_cast<unsigned long long>(counter_sum(final_snap, "transport.retries")),
           static_cast<unsigned long long>(counter_sum(final_snap, "session.911.rounds")),
           static_cast<unsigned long long>(counter_sum(final_snap, "session.view_changes")),
           static_cast<unsigned long long>(
               counter_sum(final_snap, "runtime.proxy.cmd_dropped") +
               counter_sum(final_snap, "runtime.proxy.inbound_dropped") +
               counter_sum(final_snap, "runtime.proxy.event_dropped")));
  c.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_root, ec);
}

}  // namespace perfbench
