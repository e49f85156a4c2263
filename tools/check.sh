#!/usr/bin/env bash
# Concurrency-correctness driver: builds and runs the tier-1 test suite
# under ASan+UBSan and under TSan, with the suppression files in
# tools/sanitizers/. Any sanitizer report fails the run (halt_on_error /
# -fno-sanitize-recover=all).
#
# The chaos pass rebuilds nothing extra: it reuses both sanitizer build
# trees and re-runs the chaos harness (tests/chaos_test) across several
# FLEX_CHAOS_SEED values, so every fault site is exercised under ASan+UBSan
# and under TSan with more than one injection schedule.
#
# The coverage pass builds with --coverage (gcov instrumentation), runs
# the full test suite, and aggregates per-file line coverage for
# src/common/ straight from gcov's intermediate output (no gcovr/lcov
# dependency). It writes build-cov/coverage/coverage-summary.txt plus a
# small HTML index and enforces a line-coverage floor on src/common/.
#
# The bench pass is the perf ratchet: it rebuilds the Exp-3 analytics
# bench unsanitized, runs the fragment-scaling sweep, and diffs the
# numbers against the committed BENCH_exp3_analytics.json via
# tools/bench_compare.py (>15% regression fails). It then runs the Exp-2
# reference-vs-batched A/B (bench_exp2_snb_interactive --ab-only), which
# both ratchets against BENCH_exp2_snb.json and enforces the columnar
# floor (batched Gaia at 1 worker >=1.32x geomean over the tuple-at-a-time
# reference on the same fused plans). The sanitizer passes additionally
# run `bench_superstep_comm --smoke` and the Exp-2 A/B smoke so the
# superstep communication path and the columnar executor are exercised
# under ASan+UBSan and TSan outside of ctest; their ctest runs include
# exec_parity_test, which replays every SNB query fusion-on vs fusion-off
# on the reference and on Gaia at 1 and 4 workers, so the fused pipelines
# are sanitizer-checked in both states.
#
# The serving pass is the multi-client harness: it builds
# tests/serving_test under ASan+UBSan and under TSan and runs it across
# the chaos seeds, so the plan cache, tenant admission, and the
# concurrent-vs-serial parity oracle are exercised with several workload
# draws under both sanitizers. The bench pass additionally runs
# bench_serving (closed- and open-loop SNB mixes) and ratchets its
# QPS/p99 against BENCH_serving.json with a wide threshold (0.5): the
# baseline holds conservative floors, not medians, because the open-loop
# tail jitters heavily on a shared host.
#
# The crash pass is the durability harness: it reuses the ASan+UBSan
# build tree and re-runs tests/crash_recovery_test across the chaos
# seeds, so the writer-kill -> recover -> fingerprint-compare cycle (WAL
# torn appends, lost fsyncs, mid-apply deaths on GART, from empty and on
# a built base) is exercised with several injection schedules under
# sanitizers.
#
# The static pass builds only the two analyzers (flexlint for per-line
# invariants, flexcheck for the cross-TU concurrency/propagation
# contracts — lock-order cycles, blocking-under-lock, runnable-coverage,
# registry-drift) and runs both over the tree. Fast enough for every
# commit; the same binaries also run as ctest tests in tier-1 and so are
# exercised inside the sanitizer passes automatically.
#
# The flexbench pass runs `python3 bench/flexbench/run.py --smoke`: it
# builds the benchmark, runs all four workloads (interactive, bi,
# analytics, htap) at smoke size, and exits non-zero on any failed
# operation or output-oracle mismatch. It is the only check that runs
# every workload's oracle end to end, including Gaia at 2 workers against
# NaiveGraphDB.
#
# The tidy pass runs clang-tidy (the curated .clang-tidy at the repo
# root: bugprone-*, concurrency-*, performance-*) over src/common/ and
# src/runtime/ using the compile database from the static build tree.
# clang-tidy is optional tooling — when it is not installed the pass
# prints a notice and succeeds, so `all` stays runnable on the
# gcc-only image.
#
# Usage:
#   tools/check.sh            # all passes (static, asan, tsan, chaos,
#                             # crash, flexbench, coverage, bench; tidy
#                             # when available)
#   tools/check.sh asan       # address+undefined only
#   tools/check.sh tsan       # thread only
#   tools/check.sh chaos      # multi-seed chaos harness under both sanitizers
#   tools/check.sh serving    # multi-seed serving suite under both sanitizers
#   tools/check.sh crash      # multi-seed crash-recovery suite under ASan+UBSan
#   tools/check.sh coverage   # gcov line coverage + floor on src/common/
#   tools/check.sh flexbench  # every flexbench workload's oracle, smoke size
#   tools/check.sh bench      # perf ratchet vs BENCH_exp3_analytics.json
#   tools/check.sh static     # flexlint + flexcheck over the tree
#   tools/check.sh tidy       # clang-tidy over src/common/ + src/runtime/
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SUPP="$ROOT/tools/sanitizers"
JOBS="$(nproc)"
MODES="${1:-all}"

run_pass() {
  local name="$1" sanitize="$2" builddir="$ROOT/build-$1"
  echo "=== $name: FLEX_SANITIZE=$sanitize -> $builddir ==="
  cmake -B "$builddir" -S "$ROOT" -DFLEX_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$builddir" -j "$JOBS"
  (cd "$builddir" && ctest --output-on-failure -j "$JOBS")
  echo "--- $name: bench_superstep_comm --smoke ---"
  "$builddir/bench/bench_superstep_comm" --smoke
  echo "--- $name: bench_exp2_snb_interactive --ab-only --smoke ---"
  "$builddir/bench/bench_exp2_snb_interactive" --ab-only --smoke
}

run_bench() {
  local builddir="$ROOT/build-bench"
  echo "=== bench: perf ratchet vs BENCH_exp3_analytics.json ==="
  cmake -B "$builddir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$builddir" -j "$JOBS" --target bench_exp3_analytics_cpu
  "$builddir/bench/bench_exp3_analytics_cpu" --scaling-only \
      --json="$builddir/exp3_current.json"
  python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/BENCH_exp3_analytics.json" "$builddir/exp3_current.json"
  echo "=== bench: Exp-2 reference-vs-batched A/B vs BENCH_exp2_snb.json ==="
  cmake --build "$builddir" -j "$JOBS" --target bench_exp2_snb_interactive
  # --min-geomean is the columnar floor: batched Gaia at 1 worker (fused
  # plans, native columnar GROUP) must keep its geomean speedup over the
  # tuple-at-a-time reference on the 41-query SNB suite. Both arms are
  # single-threaded. The floor is the lowest of three full runs minus 0.1
  # (1.43x, 1.42x, 1.43x on a 4-core Intel Xeon host).
  "$builddir/bench/bench_exp2_snb_interactive" --ab-only \
      --json="$builddir/exp2_current.json" --min-geomean=1.32
  python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/BENCH_exp2_snb.json" "$builddir/exp2_current.json"
  echo "=== bench: serving ratchet vs BENCH_serving.json ==="
  cmake --build "$builddir" -j "$JOBS" --target bench_serving
  # BENCH_serving.json holds conservative floors (not measured medians):
  # the open-loop tail jitters 2-3x between runs on a shared host, so the
  # ratchet uses --threshold=0.5 — it catches a halved QPS or a doubled
  # p99, not scheduler noise.
  "$builddir/bench/bench_serving" \
      --json="$builddir/serving_current.json"
  python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/BENCH_serving.json" "$builddir/serving_current.json" \
      --threshold=0.5
}

CHAOS_SEEDS=(1 7 23 101)

# Minimum acceptable line coverage (%) over src/common/ — the layer whose
# test-first verification net this floor protects. Measured ~97% when the
# floor was set; the margin absorbs new code, not a coverage regression.
COMMON_COVERAGE_FLOOR=70

run_coverage() {
  local builddir="$ROOT/build-cov" covdir="$ROOT/build-cov/coverage"
  echo "=== coverage: gcov instrumentation -> $builddir ==="
  cmake -B "$builddir" -S "$ROOT" -DFLEX_COVERAGE=ON \
        -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build "$builddir" -j "$JOBS"
  (cd "$builddir" && ctest --output-on-failure -j "$JOBS")
  rm -rf "$covdir"
  mkdir -p "$covdir"
  # gcov's intermediate text, one stream for all objects (-t = stdout);
  # python merges counts per source line across the compilation units that
  # share a header or source file. No gcovr/lcov needed.
  (cd "$covdir" &&
   find "$builddir" -name '*.gcda' -print0 |
   xargs -0 -n 64 gcov -r -s "$ROOT" -t > all.gcov 2> gcov.log)
  python3 "$ROOT/tools/coverage_report.py" \
      "$covdir/all.gcov" "$covdir" "$COMMON_COVERAGE_FLOOR"
}

run_static() {
  local builddir="$ROOT/build-static"
  echo "=== static: flexlint + flexcheck over $ROOT ==="
  cmake -B "$builddir" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build "$builddir" -j "$JOBS" --target flexlint flexcheck
  "$builddir/tools/flexlint" "$ROOT"
  "$builddir/tools/flexcheck" "$ROOT"
}

run_tidy() {
  local builddir="$ROOT/build-static"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== tidy: clang-tidy not installed, skipping (gcc-only image) ==="
    return 0
  fi
  echo "=== tidy: clang-tidy over src/common/ + src/runtime/ ==="
  # Reuse the static pass's build tree for compile_commands.json.
  if [ ! -f "$builddir/compile_commands.json" ]; then
    cmake -B "$builddir" -S "$ROOT" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  find "$ROOT/src/common" "$ROOT/src/runtime" -name '*.cc' -print0 |
    xargs -0 -n 1 -P "$JOBS" clang-tidy -p "$builddir" --quiet
}

run_chaos() {
  local name="$1" sanitize="$2" builddir="$ROOT/build-$1"
  echo "=== chaos($name): FLEX_SANITIZE=$sanitize, seeds ${CHAOS_SEEDS[*]} ==="
  cmake -B "$builddir" -S "$ROOT" -DFLEX_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$builddir" -j "$JOBS" --target chaos_test
  for seed in "${CHAOS_SEEDS[@]}"; do
    echo "--- chaos($name) seed=$seed ---"
    FLEX_CHAOS_SEED="$seed" "$builddir/tests/chaos_test"
  done
}

run_serving() {
  # Concurrent-serving suite under both sanitizers, across the chaos
  # seeds: serving_test's workload mix is drawn from FLEX_CHAOS_SEED, so
  # each seed exercises a different interleaving of clients, plan-cache
  # traffic, and quota contention. TSan is the pass that matters most
  # here — the admission CAS loop and the sharded LRU are lock-order- and
  # race-audited by it.
  local name sanitize builddir seed
  for name in asan tsan; do
    case "$name" in
      asan) sanitize="address,undefined" ;;
      tsan) sanitize="thread" ;;
    esac
    builddir="$ROOT/build-$name"
    echo "=== serving($name): FLEX_SANITIZE=$sanitize, seeds ${CHAOS_SEEDS[*]} ==="
    cmake -B "$builddir" -S "$ROOT" -DFLEX_SANITIZE="$sanitize" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$builddir" -j "$JOBS" --target serving_test
    for seed in "${CHAOS_SEEDS[@]}"; do
      echo "--- serving($name) seed=$seed ---"
      FLEX_CHAOS_SEED="$seed" "$builddir/tests/serving_test"
    done
  done
}

run_crash() {
  local builddir="$ROOT/build-asan"
  echo "=== crash: ASan+UBSan crash recovery, seeds ${CHAOS_SEEDS[*]} ==="
  cmake -B "$builddir" -S "$ROOT" -DFLEX_SANITIZE="address,undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$builddir" -j "$JOBS" --target crash_recovery_test
  for seed in "${CHAOS_SEEDS[@]}"; do
    echo "--- crash seed=$seed ---"
    (cd "$builddir/tests" &&
     FLEX_CHAOS_SEED="$seed" ./crash_recovery_test)
  done
}

run_flexbench() {
  echo "=== flexbench: all workloads at smoke size, oracles checked ==="
  python3 "$ROOT/bench/flexbench/run.py" --smoke
}

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:suppressions=$SUPP/asan.supp"
export LSAN_OPTIONS="suppressions=$SUPP/lsan.supp"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$SUPP/ubsan.supp"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$SUPP/tsan.supp"

case "$MODES" in
  asan) run_pass asan address,undefined ;;
  tsan) run_pass tsan thread ;;
  chaos)
    run_chaos asan address,undefined
    run_chaos tsan thread
    ;;
  serving) run_serving ;;
  crash) run_crash ;;
  coverage) run_coverage ;;
  bench) run_bench ;;
  flexbench) run_flexbench ;;
  static) run_static ;;
  tidy) run_tidy ;;
  all)
    # Static analysis first: it is the cheapest pass and fails fastest.
    run_static
    run_tidy
    run_pass asan address,undefined
    run_pass tsan thread
    run_chaos asan address,undefined
    run_chaos tsan thread
    run_serving
    run_crash
    run_flexbench
    run_coverage
    run_bench
    ;;
  *)
    echo "usage: tools/check.sh [asan|tsan|chaos|serving|crash|coverage|bench|flexbench|static|tidy|all]" >&2
    exit 2
    ;;
esac

echo "=== check.sh: all requested passes clean ==="
