#!/usr/bin/env bash
# Compares fresh bench artifacts against the committed baselines and fails
# on throughput regressions.
#
#   scripts/check_bench_regression.sh [bench-out-dir] [baseline-dir]
#     defaults: bench-out, bench/baselines
#
# Every numeric field ending in "blocks_per_sec" or "speedup" that appears
# in both the baseline and the fresh artifact is compared; a drop beyond
# the tolerance fails the check. Envelope fields (seconds, exit_status,
# nproc) are never compared. Speedup fields measure host-parallel
# ratios, which are meaningless on a single-CPU runner: when an artifact's
# report says "host_limited": true, its speedup fields are skipped (noted,
# not gated) while absolute blocks/sec gating still applies. A baseline
# field MISSING from the fresh run also fails:
# a silently dropped shape/mode is exactly the regression this check
# exists to catch. So does a fresh artifact recorded from a bench that
# exited non-zero — its numbers are not trustworthy. Fields only the fresh
# run has are reported but not fatal (new shapes/modes need a baseline
# refresh, not a red build).
#
#   KCONV_BENCH_TOLERANCE   fractional allowed drop, default 0.10 (= 10%)
#
# Baselines are host-dependent wall-clock numbers: refresh them
# (scripts/run_benches.sh && cp bench-out/BENCH_<name>.json
# bench/baselines/) whenever the benching host changes or an intentional
# perf change lands, and say so in the commit message.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-bench-out}"
BASE_DIR="${2:-bench/baselines}"
TOLERANCE="${KCONV_BENCH_TOLERANCE:-0.10}"

if [[ ! -d "$BASE_DIR" ]]; then
  echo "error: baseline dir $BASE_DIR not found" >&2
  exit 1
fi
if [[ ! -d "$OUT_DIR" ]]; then
  echo "error: $OUT_DIR not found — run scripts/run_benches.sh first" >&2
  exit 1
fi

status=0
found=0
for base in "$BASE_DIR"/BENCH_*.json; do
  [[ -f "$base" ]] || continue
  name="$(basename "$base")"
  cur="$OUT_DIR/$name"
  if [[ ! -f "$cur" ]]; then
    echo "MISS $name (no fresh artifact in $OUT_DIR)" >&2
    status=1
    continue
  fi
  found=1
  rc="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1])).get("exit_status", 0))' "$cur")"
  if [[ "$rc" -ne 0 ]]; then
    echo "FAIL $name: fresh artifact has exit_status=$rc — bench crashed, numbers untrustworthy" >&2
    status=1
    continue
  fi
  TOLERANCE="$TOLERANCE" python3 - "$base" "$cur" "$name" <<'EOF' || status=1
import json, os, sys

tolerance = float(os.environ["TOLERANCE"])
base_path, cur_path, name = sys.argv[1:4]

def throughputs(node, path, out):
    """Collect every *blocks_per_sec and *speedup field, keyed by a stable
    path built from the name/mode labels rather than list positions."""
    if isinstance(node, dict):
        label = node.get("name") or node.get("mode")
        here = path + [str(label)] if label else path
        for key, value in node.items():
            gated = key.endswith("blocks_per_sec") or key.endswith("speedup")
            if gated and isinstance(value, (int, float)):
                out[".".join(here + [key])] = float(value)
            else:
                throughputs(value, here, out)
    elif isinstance(node, list):
        for item in node:
            throughputs(item, path, out)

def host_limited(node):
    """True when any dict in the document says host_limited: true — the
    bench itself reporting that this host cannot exercise parallelism."""
    if isinstance(node, dict):
        if node.get("host_limited") is True:
            return True
        return any(host_limited(v) for v in node.values())
    if isinstance(node, list):
        return any(host_limited(v) for v in node)
    return False

base, cur = {}, {}
base_doc, cur_doc = json.load(open(base_path)), json.load(open(cur_path))
throughputs(base_doc, [], base)
throughputs(cur_doc, [], cur)
skip_speedups = host_limited(cur_doc) or host_limited(base_doc)

failed = False
for key in sorted(base):
    if key.endswith("speedup") and skip_speedups:
        print(f"skip {name}: {key} (host_limited — speedup ratios carry "
              f"no signal on this runner)")
        continue
    if key not in cur:
        print(f"FAIL {name}: baseline field {key} missing from the fresh "
              f"run — the bench no longer emits this shape/mode. If that "
              f"is intentional, refresh bench/baselines/{name} and say so "
              f"in the commit message.")
        failed = True
        continue
    drop = 1.0 - cur[key] / base[key] if base[key] > 0 else 0.0
    verdict = "FAIL" if drop > tolerance else "ok  "
    if drop > tolerance:
        failed = True
    print(f"{verdict} {name}: {key}  base={base[key]:.1f} "
          f"now={cur[key]:.1f} ({-drop:+.1%})")
for key in sorted(set(cur) - set(base)):
    print(f"note {name}: {key} has no baseline (refresh bench/baselines)")

sys.exit(1 if failed else 0)
EOF
done

if [[ "$found" -eq 0 ]]; then
  echo "error: no BENCH_*.json baselines in $BASE_DIR" >&2
  exit 1
fi

exit "$status"
