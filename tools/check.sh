#!/usr/bin/env bash
# Repo checks: the CI gate matrix (.github/workflows/ci.yml) run
# locally, one step per `==>` line below.  clang-tidy is skipped with a
# notice when it is not installed; each smoke script's header says what it
# checks.
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

echo "==> [1/14] static analyzer (self-test + repo scan), validator self-test"
python3 tools/ujoin_effects.py --self-test
mkdir -p build
python3 tools/ujoin_effects.py --require-roots --report build/ujoin.effects
python3 tools/validate.py --self-test

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

echo "==> [5/14] configure + build the tsan-labelled tests (ThreadSanitizer)"
cmake -B build-tsan -S . -DUJOIN_SANITIZE=thread \
  -DUJOIN_BUILD_BENCHMARKS=OFF -DUJOIN_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS" --target ujoin_tsan_tests

echo "==> [6/14] tsan-labelled tests under TSan"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan

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
./build/tests/frozen_index_test --gtest_filter='FrozenIndexTest.*DoesNotAllocate'
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
