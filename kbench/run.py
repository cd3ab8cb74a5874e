#!/usr/bin/env python3
"""Builds the kconv benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 kbench/run.py --workload conv-layers --seed 1 --seconds 12 --trace 0
    python3 kbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/kbench (default .bench_build/kbench),
results and spans to .bench_out/. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero when the
build fails, an argument is bad or any op fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["conv-layers", "serve-warm", "tune-cold", "conv-fleet"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "kbench")


def build(target):
    bdir = build_dir()
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, target)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build("kbench_test" if args.self_test else "kbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"kbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([binary]).returncode

    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(ROOT, ".bench_out"), "--commit", commit(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
