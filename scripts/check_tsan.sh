#!/usr/bin/env bash
# Builds the threaded test suites under ThreadSanitizer and runs them.
#
# Three suites drive the repo's multi-threaded code:
#   - the determinism label: chunked, sampled and fleet launches and
#     autotune sweeps on the launch layer's thread pool;
#   - kconv_serve_test: the serving layer's worker pool running batched
#     requests over a shared PlanCache, at 1 to 4 worker threads;
#   - kconv_obs_test: the telemetry sink and metrics registry fed by those
#     serving workers.
# A clean run here covers the pool's synchronization protocol and the
# serving and telemetry layers built on it. ThreadSanitizer fails a test
# binary's exit status when it reports a race.
#
#   scripts/check_tsan.sh [build-dir]    # default: build-tsan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DKCONV_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" --target kconv_determinism_test \
  kconv_serve_test kconv_obs_test
ctest --test-dir "$BUILD_DIR" -L determinism --output-on-failure
"$BUILD_DIR/tests/kconv_serve_test"
"$BUILD_DIR/tests/kconv_obs_test"
