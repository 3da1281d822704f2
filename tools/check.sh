#!/usr/bin/env bash
# Repo check driver, mirroring the CI gate matrix (.github/workflows/ci.yml):
# invariant lint, warning-hardened Release build + tier-1 tests, clang-tidy
# (skipped with a notice when not installed), the concurrency-sensitive join
# tests under ThreadSanitizer, the full suite under UndefinedBehaviorSanitizer,
# the full suite with the observability instrumentation compiled out
# (-DUJOIN_OBS=OFF, CI's obs-off job), the index-probe micro-bench gates
# (speedup + zero allocations), a CLI smoke (tools/cli_smoke.sh): a join
# with metrics + tracing whose JSON outputs are schema-validated, the
# default join against --exact (same pairs, lower bounds <= exact), the
# rejection of a removed join flag and a batch search's index figures,
# plus the allocation gate with recording on, and a
# live-monitoring smoke (tools/live_smoke.sh): HTTP scrape of /metrics and
# /healthz from a held join, exposition-format validation, and the
# --trace-sample=N probe-span reduction check, plus a resident-service
# smoke (tools/serve_smoke.sh): a socket query batch against `ujoin_cli
# serve`, a /metrics scrape of the serve-layer series, a clean SIGINT
# shutdown, and the watchdog-stall leg (slow query under --watchdog-ms,
# /debug/stalls content identical across 1/2/4 concurrent clients, flight
# records validated by tools/validate_flight_record.py), and a benchmark
# harness smoke: perfbench/ built from source and one short traced
# join_names run, which exits 0 only when its 1-thread, 2-thread and
# traced-replay pair lists agree byte for byte and its layer times close.
#
# Usage: tools/check.sh [jobs]
#   jobs defaults to the machine's core count.
#
# Exits non-zero on the first failing step, including any sanitizer report
# (halt_on_error=1 makes the offending test fail instead of just logging).

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Any sanitizer finding is a hard failure, in every step below.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"

echo "==> [1/14] invariant lint + effect analysis (self-tests + repo scans)"
python3 tools/ujoin_lint.py --self-test
python3 tools/ujoin_lint.py
python3 tools/ujoin_effects.py --self-test
python3 tools/ujoin_effects.py --require-roots
python3 tools/validate_query_log.py --self-test
python3 tools/validate_flight_record.py --self-test

echo "==> [2/14] configure + build (Release, warnings as errors)"
cmake -B build -S . -DUJOIN_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"

echo "==> [3/14] clang-tidy (profile: .clang-tidy)"
if command -v clang-tidy >/dev/null 2>&1; then
  # The build dir holds compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS).
  find src tools bench -name '*.cc' -print0 |
    xargs -0 -n 4 -P "$JOBS" clang-tidy -p build --quiet
else
  echo "clang-tidy not installed: skipping (CI runs this step)"
fi

echo "==> [4/14] tier-1 test suite"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> [5/14] configure + build (ThreadSanitizer)"
cmake -B build-tsan -S . -DUJOIN_SANITIZE=thread \
  -DUJOIN_BUILD_BENCHMARKS=OFF -DUJOIN_BUILD_EXAMPLES=OFF >/dev/null
TSAN_TARGETS=(self_join_parallel_test self_cross_differential_test \
  join_stats_test self_join_test cross_join_test join_obs_test \
  scrape_server_test serve_protocol_test serve_differential_test \
  slow_query_test verify_budget_test flight_recorder_test watchdog_test \
  serve_idle_test)
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TARGETS[@]}"

echo "==> [6/14] parallel join tests under TSan"
for t in "${TSAN_TARGETS[@]}"; do
  echo "--- $t"
  "./build-tsan/tests/$t"
done

echo "==> [7/14] full suite under UBSan"
cmake -B build-ubsan -S . -DUJOIN_SANITIZE=undefined \
  -DUJOIN_BUILD_BENCHMARKS=OFF -DUJOIN_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ubsan -j "$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -LE lint

echo "==> [8/14] full suite with observability compiled out (UJOIN_OBS=OFF)"
cmake -B build-obs-off -S . -DUJOIN_OBS=OFF -DUJOIN_WERROR=ON >/dev/null
cmake --build build-obs-off -j "$JOBS"
ctest --test-dir build-obs-off --output-on-failure -j "$JOBS"

echo "==> [9/14] index probe micro-bench (speedup + zero-allocation gates)"
# Tiny scale: this is a smoke run of the gates, not a timing measurement.
UJOIN_BENCH_SCALE="${UJOIN_BENCH_SCALE:-0.25}" \
  ./build/bench/bench_index_probe build/BENCH_probe.json

echo "==> [10/14] CLI smoke (run report + trace schemas, verification contract)"
bash tools/cli_smoke.sh build

echo "==> [11/14] zero-allocation and overhead gates with recording on"
./build/tests/frozen_index_test \
  --gtest_filter='FrozenIndexTest.SteadyStateQueryDoesNotAllocate'
# Smoke gate only: at this tiny scale a 1-CPU box needs a wide margin and
# extra reps for a stable minimum.  The authoritative 2% budget is the
# bench's own default gate at full scale (see DESIGN.md "Observability").
UJOIN_BENCH_SCALE="${UJOIN_BENCH_SCALE:-0.25}" \
  UJOIN_OBS_OVERHEAD_GATE="${UJOIN_OBS_OVERHEAD_GATE:-0.15}" \
  UJOIN_OBS_OVERHEAD_REPS="${UJOIN_OBS_OVERHEAD_REPS:-15}" \
  ./build/bench/bench_obs_overhead build/BENCH_obs.json

echo "==> [12/14] live monitoring smoke (scrape endpoint + trace sampling)"
bash tools/live_smoke.sh build

echo "==> [13/14] resident service smoke (socket batch + scrape + SIGINT)"
bash tools/serve_smoke.sh build

echo "==> [14/14] benchmark harness smoke (build + one traced join_names run)"
# The traced replay calls InvertedSegmentIndex::Query, QueryWorkspace and
# internal::PairVerifier::Decide directly, so the harness must keep building.
CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py \
  --workload join_names --seed 1 --seconds 1 --trace 1

echo "all checks passed"
