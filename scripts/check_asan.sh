#!/usr/bin/env bash
# Builds eight test suites under Address+UndefinedBehaviorSanitizer and
# runs them.
#
#   - the determinism label: the trace-replay engine, the heaviest pointer
#     machinery in the repo (recorded tapes, rebased origin pointers,
#     batched interpreter scratch), driven through capture, fast-forward
#     validation, tape interpretation and chunked parallel launches;
#   - kconv_serve_test: the layer-graph runner's tensor arena and the
#     serving driver's per-request roll-ups;
#   - kconv_obs_test: the telemetry sink, metrics registry and report;
#   - kconv_sim_test: the executor, including the chunk-owned LaneSet whose
#     recycled coroutine frames are poisoned while on the free list, and
#     the plan payload and tape sidecar parsers fed damaged bytes;
#   - kconv_common_test: the shared string helpers, the JSON escaper among
#     them;
#   - kconv_analysis_test: the hazard and lint reports that escape their
#     messages into JSON;
#   - kconv_profile_test: kconv-prof's per-phase charging through the
#     charge rule, its timelines and the counter-table JSON writer;
#   - kconv_xray_test: kconv-xray's counter sink and its report JSON.
# UBSan rides along for free (the two compose, unlike TSan).
#
#   scripts/check_asan.sh [build-dir]            # default: build-asan
#   KCONV_SANITIZE=address scripts/check_asan.sh # override the mix
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DKCONV_SANITIZE="${KCONV_SANITIZE:-address,undefined}"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target kconv_determinism_test \
  kconv_serve_test kconv_obs_test kconv_sim_test kconv_common_test \
  kconv_analysis_test kconv_profile_test kconv_xray_test
ctest --test-dir "$BUILD_DIR" -L determinism --output-on-failure
"$BUILD_DIR/tests/kconv_serve_test"
"$BUILD_DIR/tests/kconv_obs_test"
"$BUILD_DIR/tests/kconv_sim_test"
"$BUILD_DIR/tests/kconv_common_test"
"$BUILD_DIR/tests/kconv_analysis_test"
"$BUILD_DIR/tests/kconv_profile_test"
"$BUILD_DIR/tests/kconv_xray_test"
