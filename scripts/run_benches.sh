#!/usr/bin/env bash
# Runs the bench suite and writes one BENCH_<name>.json artifact per
# binary, so the perf trajectory is recorded PR over PR instead of lost
# in scrollback.
#
#   scripts/run_benches.sh [-o out-dir] [build-dir] [out-dir]
#     defaults: build, bench-out
#
# The output directory is bench-out/ unless overridden — either with the
# second positional argument (kept for compatibility) or explicitly with
# -o, which wins over both.
#
# Each artifact records the bench name, wall-clock seconds, exit status,
# the host's CPU count (nproc) and captured stdout. Benches that already
# emit pure JSON (e.g. bench_replay_speedup) are embedded as a structured
# "report" field; text-table benches keep their output under "log".
set -euo pipefail

cd "$(dirname "$0")/.."

OUT_OVERRIDE=""
while getopts "o:h" flag; do
  case "$flag" in
    o) OUT_OVERRIDE="$OPTARG" ;;
    h|*)
      echo "usage: scripts/run_benches.sh [-o out-dir] [build-dir] [out-dir]" >&2
      exit 2
      ;;
  esac
done
shift $((OPTIND - 1))

BUILD_DIR="${1:-build}"
OUT_DIR="${OUT_OVERRIDE:-${2:-bench-out}}"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build the project first" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"

status=0
for bin in "$BUILD_DIR"/bench/bench_*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  name="$(basename "$bin")"
  log="$(mktemp)"
  start="$(date +%s.%N)"
  rc=0
  "$bin" >"$log" 2>&1 || rc=$?
  end="$(date +%s.%N)"
  BENCH_NAME="$name" BENCH_RC="$rc" BENCH_START="$start" BENCH_END="$end" \
  python3 - "$log" >"$OUT_DIR/BENCH_${name#bench_}.json" <<'EOF'
import json, os, sys

text = open(sys.argv[1], errors="replace").read()
artifact = {
    "bench": os.environ["BENCH_NAME"],
    "seconds": round(float(os.environ["BENCH_END"]) -
                     float(os.environ["BENCH_START"]), 3),
    "exit_status": int(os.environ["BENCH_RC"]),
    "nproc": os.cpu_count(),
}
try:
    artifact["report"] = json.loads(text)
except ValueError:
    artifact["log"] = text
print(json.dumps(artifact, indent=1))
EOF
  rm -f "$log"
  if [[ "$rc" -ne 0 ]]; then
    echo "FAIL $name (exit $rc)" >&2
    status=1
  else
    echo "ok   $name -> $OUT_DIR/BENCH_${name#bench_}.json"
  fi
done

exit "$status"
