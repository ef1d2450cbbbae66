#!/usr/bin/env bash
# Single CI entry point for the repo's non-benchmark gates
# (docs/parallel.md, docs/observability.md):
#
#   1. WIMPY_TSAN smoke — configures/builds a -fsanitize=thread tree and
#      runs the concurrency-sensitive tests (every test that runs a
#      sim::RunSweep sweep, and the hw profile registry) under TSan, the
#      guard for the "bit-identical at any --threads" machinery actually
#      being data-race-free.
#   2. WIMPY_ASAN — configures/builds a -fsanitize=address,undefined tree
#      with -Werror (so every target must also build warning-free) and
#      runs every ctest test under it: the pooled steady-state request
#      path (coroutine frames, span and residency blocks, ring buffers,
#      interned-id fabric tables — docs/scale.md), the obs exporters and
#      the seed-77 golden scripts alike. The frame pool disables itself
#      under ASan so every coroutine frame and every pooled span block
#      goes through the real allocator and gets poisoned/unpoisoned
#      individually.
#   3. tools/check_trace.sh — obs export validation: trace-event JSON
#      schema + causal ids + flow arrows, metrics CSV shape, flamegraph
#      folding, the trace_analyze.py seed-77 golden, and (with
#      CHECK_DETERMINISM=1) byte-identical exports across --threads.
#
# tools/check_bench_regression.sh calls this after its performance gate;
# it can also run standalone.
#
# Usage:
#   tools/ci.sh
#   BUILD_DIR=out tools/ci.sh            # tree used by check_trace.sh
#   SKIP_TSAN=1 SKIP_ASAN=1 tools/ci.sh  # skip the sanitizer builds
#   TSAN_BUILD_DIR=build-tsan ASAN_BUILD_DIR=build-asan tools/ci.sh
#   CHECK_DETERMINISM=1 tools/ci.sh      # forwarded to check_trace.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
TSAN_TARGETS=(sim_replication_test load_openloop_test obs_metrics_test
              obs_sketch_test obs_telemetry_test obs_tracer_test
              hw_profiles_concurrency_test)
TSAN_TESTS="${TSAN_TESTS:-$(IFS='|'; echo "${TSAN_TARGETS[*]}")}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"

if [[ "${SKIP_TSAN:-0}" == "0" ]]; then
  echo "== WIMPY_TSAN smoke (SKIP_TSAN=1 to skip) =="
  if [[ ! -f "${TSAN_BUILD_DIR}/CMakeCache.txt" ]]; then
    cmake -B "${TSAN_BUILD_DIR}" -S . -DWIMPY_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  # Only the concurrency-sensitive test binaries: a full TSan build of
  # every bench would dominate CI time without adding coverage.
  cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" --target "${TSAN_TARGETS[@]}"
  (cd "${TSAN_BUILD_DIR}" && ctest -R "${TSAN_TESTS}" --output-on-failure)
  echo "TSan smoke OK"
else
  echo "== WIMPY_TSAN smoke skipped (SKIP_TSAN=1) =="
fi

if [[ "${SKIP_ASAN:-0}" == "0" ]]; then
  echo
  echo "== WIMPY_ASAN whole suite (SKIP_ASAN=1 to skip) =="
  # Configured on every run so an existing tree picks up -Werror too.
  cmake -B "${ASAN_BUILD_DIR}" -S . -DWIMPY_ASAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror
  # Everything: the golden-script tests run bench binaries, so the whole
  # tree is built, not just the test executables. That makes it the
  # warning gate as well: -Werror fails CI on any warning in any target.
  cmake --build "${ASAN_BUILD_DIR}" -j "$(nproc)"
  # ASan's use-after-scope instrumentation keeps GCC from emitting the
  # tail calls symmetric transfer relies on, so a chain of Tasks that
  # completes at one instant nests on the native stack in this build
  # only (sim_task_test's Fib(18) chain overflows the default 8 MiB
  # and fits in 16). A 64 MiB stack keeps the instrumentation whole.
  (cd "${ASAN_BUILD_DIR}" && ulimit -s 65536 &&
    ctest -j "$(nproc)" --output-on-failure)
  echo "ASan whole suite OK"
else
  echo "== WIMPY_ASAN skipped (SKIP_ASAN=1) =="
fi

echo
echo "== observability export checks =="
BUILD_DIR="${BUILD_DIR}" tools/check_trace.sh

echo
echo "OK: ci.sh gates passed"
