#!/usr/bin/env bash
# CI gate for the zero-copy wire path: builds an AddressSanitizer tree and
# runs the two suites most likely to surface aliasing bugs in ref-counted
# slice buffers — the full chaos sweep (seeds 1..50, every protocol
# invariant checker armed) and the `perf`-labelled allocation/copy budget
# tests. A use-after-free in an aliased datagram view, a frame mutated
# while shared, or a regression back to per-retry copies all fail here.
# The sweep starts with bench_chaos_args: malformed command lines must
# exit 2, so a typo in the sweep's arguments cannot pass as zero rounds.
#
# Usage: scripts/ci_check.sh [asan-build-dir] [tsan-build-dir]
#   asan-build-dir  defaults to <repo>/build-asan (configured on demand)
#   tsan-build-dir  defaults to <repo>/build-tsan (configured on demand)
#
# The TimerQueue both event loops keep their timers in runs its own tests
# and the loop-parity body under the same ASAN tree: a timer is moved out
# of the heap before it runs, and cancel churn rebuilds the heap, so a
# dangling handler or a bad rebuild fails here.
#
# The shared ring invariant checkers (src/testing/oracles.h) run their own
# tests there too: every cluster harness judges its rings through them, so
# a checker that stops flagging a duplicate or a lost message fails here.
# So does chaos_test, less its seed sweep (bench_chaos runs those seeds):
# its cases hold a ChaosCluster by hand, whose services must die before
# the testing::Cluster rings they run on (VipManager's destructor cancels
# its timer through its ring's env). transport_test and splitbrain_test
# follow: the transport's per-peer state (send/receive windows, RTT and
# link-health tables, forget_peer pruning) and the multi-interface paths
# of redundant links run there under ASAN. Then session_failure_test and
# session_mux_test: probation retries and saves, removal accounting, and
# the shared detector's fan-out to sibling rings on one mux.
#
# The `durability`-labelled suite then runs under the same ASAN tree:
# WAL format/torn-tail unit tests plus the restart-storm chaos sweep
# (seeds 1..25) whose oracle allows ZERO acked-write losses and ZERO
# phantom resurrections, and the bench_durability WAL-overhead gate.
# bench_reshard then runs twice and the two --json reports must be
# byte-identical: the simulated benches replay from their seeds, so an
# instrument fed by the wall clock (or any other non-seeded input) that
# reaches a report fails here.
#
# A lossy-link soak follows the clean sweep: the same invariant checkers
# under 5% uniform base packet loss with the RTT-inflation and link-flap
# fault classes in the schedule and the adaptive detector on. The soak
# fails if the ground-truth oracle counts more false removals (a node
# removed while its process was alive) than SOAK_FALSE_RM_BUDGET.
#
# A ThreadSanitizer pass closes the gate: the `runtime`-labelled suite
# (timer queue + loop parity, SPSC stress, cross-thread eventfd posts,
# live ThreadedNode clusters, the udp_cluster smoke, the kill -9 raincored
# harness, and the harness's and raincored's rejected command lines) runs
# in a separate TSAN tree, since ASAN and TSAN cannot share one build.
# Any data race in the I/O-thread/worker handoff fails here.
# The metrics_test binary runs in the same tree: its concurrency case
# records into one histogram from four threads while a fifth snapshots.
# (The binary, not the `metrics` label, which also holds the
# bench_json_emit_* fixtures.)
#
# Both trees compile with -Werror on top of the project's warning flags
# (-Wall -Wextra -Wshadow ...), so a change that adds a compiler warning
# fails here instead of scrolling past in every later build log.
#
# The last stage builds the benchmark (perfbench/, its own CMake tree over
# ../src, in .bench_build/) and runs its self-test. perfbench calls the
# node, ring and scheduler entry points directly, so a change that breaks
# one fails CI here instead of in a benchmark run.
#
# Environment:
#   CHAOS_ROUNDS=50 CHAOS_MS=3000 CHAOS_NODES=5 CHAOS_SEED=1  sweep shape
#   SOAK_ROUNDS=10 SOAK_MS=2000 SOAK_SEED=301                 soak shape
#   SOAK_LOSS=0.05 SOAK_FALSE_RM_BUDGET=12                    soak gate
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
TSAN_BUILD="${2:-$ROOT/build-tsan}"
ROUNDS="${CHAOS_ROUNDS:-50}"
MS="${CHAOS_MS:-3000}"
NODES="${CHAOS_NODES:-5}"
SEED="${CHAOS_SEED:-1}"
SOAK_ROUNDS="${SOAK_ROUNDS:-10}"
SOAK_MS="${SOAK_MS:-2000}"
SOAK_SEED="${SOAK_SEED:-301}"
SOAK_LOSS="${SOAK_LOSS:-0.05}"
SOAK_FALSE_RM_BUDGET="${SOAK_FALSE_RM_BUDGET:-12}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure + build (ASAN) in $BUILD"
cmake -B "$BUILD" -S "$ROOT" -DRAINCORE_ASAN=ON -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD" -j"$JOBS" --target bench_chaos wire_perf_test \
    shard_test bench_shard bench_json_check storage_test durability_test \
    bench_durability batching_test fuzz_robustness_test property_test \
    bench_saturation reshard_test bench_reshard real_time_loop_test \
    oracles_test chaos_test transport_test splitbrain_test \
    session_failure_test session_mux_test

echo "== bench_chaos rejects malformed command lines (exit 2, no rounds run)"
ctest --test-dir "$BUILD" -R '^bench_chaos_args$' --output-on-failure

echo "== chaos sweep: $ROUNDS rounds x ${MS}ms, $NODES nodes, seeds $SEED.."
"$BUILD/bench/bench_chaos" "$ROUNDS" "$MS" "$NODES" "$SEED"

echo "== lossy-link soak: $SOAK_ROUNDS rounds x ${SOAK_MS}ms at ${SOAK_LOSS} loss," \
     "adaptive detector, false-removal budget $SOAK_FALSE_RM_BUDGET"
"$BUILD/bench/bench_chaos" "$SOAK_ROUNDS" "$SOAK_MS" "$NODES" "$SOAK_SEED" \
    --loss="$SOAK_LOSS" --adaptive \
    --false-removal-budget="$SOAK_FALSE_RM_BUDGET"

echo "== timer queue and loop parity under ASAN (heap move-out, cancel-churn" \
     "rebuild, the shared Scheduler contract on both loops)"
"$BUILD/tests/real_time_loop_test" \
    --gtest_filter='TimerQueueTest.*:SchedulerParityTest.*'

echo "== ring invariant checkers under ASAN (crafted logs, final batch," \
     "membership, multi-ring texts, the stability window)"
"$BUILD/tests/oracles_test"

echo "== chaos_test under ASAN (failure report, every fault class, min-alive," \
     "Cluster chaos, epoch and ring dump; the seed sweep ran above)"
"$BUILD/tests/chaos_test" --gtest_filter='-Seeds/ChaosSweep.*'

echo "== transport_test and splitbrain_test under ASAN (per-peer state and" \
     "its pruning, link health, redundant links on 2-interface nodes)"
"$BUILD/tests/transport_test"
"$BUILD/tests/splitbrain_test"

echo "== session_failure_test and session_mux_test under ASAN (probation," \
     "removal accounting, the shared detector's fan-out across rings)"
"$BUILD/tests/session_failure_test"
"$BUILD/tests/session_mux_test"

echo "== perf label under ASAN (allocation/copy budgets, encode-once)"
ctest --test-dir "$BUILD" -L perf --output-on-failure

echo "== shard label under ASAN (multi-ring runtime, sharded data plane," \
     "25-seed multi-ring chaos sweep, bench_shard 2.5x scaling gate)"
ctest --test-dir "$BUILD" -L shard --output-on-failure

echo "== durability label under ASAN (WAL format/torn-tail tests," \
     "restart-storm sweep seeds 1..25 with a zero acked-write-loss and" \
     "zero phantom-resurrection budget, bench_durability 0.6x WAL gate)"
ctest --test-dir "$BUILD" -L durability --output-on-failure

echo "== bench_reshard replays from its seed: two --json reports, byte-compared"
REPLAY_DIR="$(mktemp -d)"
"$BUILD/bench/bench_reshard" --json="$REPLAY_DIR/a.json" > /dev/null
"$BUILD/bench/bench_reshard" --json="$REPLAY_DIR/b.json" > /dev/null
cmp "$REPLAY_DIR/a.json" "$REPLAY_DIR/b.json"
rm -rf "$REPLAY_DIR"

echo "== reshard label under ASAN (versioned-router property tests and the" \
     "live-migration chaos sweeps: kill source mid-snapshot, kill dest" \
     "before CUTOVER, partition during unfreeze — 9 seeds each, zero" \
     "acked-write-loss and zero double-apply oracles, plus the" \
     "bench_reshard 4->8 resize p99-blip gate)"
ctest --test-dir "$BUILD" -L reshard --output-on-failure

echo "== batching label under ASAN (batch-codec fuzzers over aliased" \
     "sub-views, formation and backpressure tests, knob-equivalence" \
     "properties, 25-seed chaos sweep with batching enabled)"
ctest --test-dir "$BUILD" -L batching --output-on-failure

echo "== configure + build (TSAN) in $TSAN_BUILD"
cmake -B "$TSAN_BUILD" -S "$ROOT" -DRAINCORE_TSAN=ON -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$TSAN_BUILD" -j"$JOBS" --target real_time_loop_test \
    runtime_test udp_cluster raincored cluster_harness metrics_test

echo "== runtime label under TSAN (loop semantics, SPSC handoff, threaded" \
     "nodes on kernel UDP, udp_cluster smoke, raincored kill -9 harness)"
ctest --test-dir "$TSAN_BUILD" -L runtime --output-on-failure

echo "== metrics_test under TSAN (lock-free histogram: concurrent records" \
     "against snapshots, exact merge/diff algebra)"
"$TSAN_BUILD/tests/metrics_test"

echo "== perfbench self-test (builds the benchmark over ../src; recorder," \
     "timeline, output checkers and kv-sim seed determinism)"
python3 "$ROOT/perfbench/run.py" --selftest

echo "== ci_check OK"
