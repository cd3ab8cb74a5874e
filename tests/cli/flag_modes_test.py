#!/usr/bin/env python3
"""kconv_cli mode checks: a flag its mode never reads exits 2, untouched.

usage: flag_modes_test.py PATH/TO/kconv_cli

For every (flag, mode) pair that the matrix below leaves out, kconv_cli
must exit 2 with "error: --FLAG does not apply to MODE", print nothing on
stdout, leave an existing --trace-out file unchanged and create no
--plan-cache or --telemetry-out directory. A few accepted invocations
must exit 0. The matrix is written out here rather than read from the
CLI, so a change to the CLI's flag table has to change it too.
"""
import json
import os
import subprocess
import sys
import tempfile

MODES = ("convolve", "xray", "serve", "autotune")

# flag -> (value it is given, modes that read it).
MATRIX = {}
for flags, value, modes in (
    (["--algo"], "general", "convolve xray"),
    (["--vec"], "1", "convolve xray"),
    (["--same"], None, "convolve xray"),
    (["--arch"], "fermi", "convolve xray autotune"),
    (["--c", "--f", "--k", "--n"], "8", "convolve xray autotune"),
    (["--sample"], "2", "convolve"),
    (["--check", "--profile"], None, "convolve"),
    (["--trace-out"], "TRACE", "convolve"),
    (["--threads"], "1", "convolve serve"),
    (["--replay", "--no-pattern-cache"], None, "convolve serve"),
    (["--devices"], "2", "convolve serve"),
    (["--shard"], "batch", "convolve serve"),
    (["--plan-cache"], "PLANS", "convolve serve autotune"),
    (["--analytic"], None, "convolve serve autotune"),
    (["--xray"], None, "convolve xray"),
    (["--serve", "--no-fuse"], None, "serve"),
    (["--network"], "lenet", "serve"),
    (["--requests"], "1", "serve"),
    (["--telemetry-out"], "TEL", "serve"),
    (["--autotune", "--static-prune"], None, "autotune"),
    (["--json"], None, "convolve xray serve autotune"),
):
    for flag in flags:
        MATRIX[flag] = (value, modes.split())

# The flags that pick a mode, or leave xray mode, cannot be refused by
# the mode they would pick away from.
SELECTORS = {
    ("--serve", "convolve"), ("--autotune", "convolve"),
    ("--serve", "autotune"),
    ("--check", "xray"), ("--profile", "xray"), ("--trace-out", "xray"),
    ("--analytic", "xray"),
}


def mode_of(argv):
    """The mode kconv_cli picks for `argv`."""
    given = {a.split("=")[0] for a in argv if a.startswith("--")}
    leaves_xray = {"--check", "--profile", "--trace-out", "--analytic"}
    if "--xray" in given and not given & leaves_xray:
        return "xray"
    if "--serve" in given:
        return "serve"
    if "--autotune" in given:
        return "autotune"
    return "convolve"


def first_line(text):
    return text.strip().split("\n")[0]


def main():
    cli = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory(prefix="kconv_cli_modes_") as tmp:
        paths = {"TRACE": os.path.join(tmp, "t.json"),
                 "PLANS": os.path.join(tmp, "plans"),
                 "TEL": os.path.join(tmp, "tel")}
        sentinel = "existing trace\n"
        with open(paths["TRACE"], "w") as f:
            f.write(sentinel)

        def arg(flag):
            value = MATRIX[flag][0]
            return [flag] if value is None else [flag, paths.get(value, value)]

        # Each mode's own flags plus the accepted flags that write files.
        base = {
            "convolve": arg("--trace-out") + arg("--plan-cache"),
            "xray": ["--xray"],
            "serve": ["--serve", "--network", "lenet", "--requests", "1"] +
                     arg("--plan-cache") + arg("--telemetry-out"),
            "autotune": ["--autotune"] + arg("--plan-cache"),
        }

        def run(argv):
            return subprocess.run([cli] + argv, capture_output=True,
                                  text=True, timeout=120)

        def untouched(why):
            with open(paths["TRACE"]) as f:
                if f.read() != sentinel:
                    failures.append(f"{why}: --trace-out file changed")
            for key in ("PLANS", "TEL"):
                if os.path.exists(paths[key]):
                    failures.append(f"{why}: {paths[key]} was created")

        refused = skipped = 0
        for flag, (_, modes) in MATRIX.items():
            for mode in MODES:
                if mode in modes:
                    continue
                if (flag, mode) in SELECTORS:
                    skipped += 1
                    continue
                argv = base[mode] + arg(flag)
                # --xray without --analytic would pick xray mode itself.
                if mode_of(argv) != mode:
                    argv.append("--analytic")
                assert mode_of(argv) == mode, argv
                r = run(argv)
                want = f"error: {flag} does not apply to {mode}"
                why = " ".join(argv)
                if r.returncode != 2 or want not in r.stderr or r.stdout:
                    failures.append(f"{why}: exit {r.returncode}, "
                                    f"stderr {first_line(r.stderr)!r}")
                untouched(why)
                refused += 1

        # Each of these exits 2 before it runs or writes anything.
        for argv in (["--autotune", "--trace-out", paths["TRACE"]],
                     ["--serve", "--network", "lenet", "--requests", "1",
                      "--check", "--profile", "--algo", "fft", "--k", "7"],
                     ["--serve", "--network", "lenet", "--requests", "1",
                      "--sample", "2"],
                     ["--serve", "--network", "lenet", "--requests", "1",
                      "--arch", "fermi"],
                     ["--autotune", "--devices", "4", "--threads", "1",
                      "--replay", "--check"],
                     ["--xray", "--plan-cache", paths["PLANS"], "--threads",
                      "3", "--replay"],
                     ["--network", "lenet", "--requests", "3", "--no-fuse"],
                     ["--serve", "--autotune"]):
            r = run(argv)
            why = " ".join(argv)
            if r.returncode != 2 or "does not apply to" not in r.stderr:
                failures.append(f"{why}: exit {r.returncode}, "
                                f"stderr {first_line(r.stderr)!r}")
            untouched(why)

        # Accepted invocations, in both value spellings.
        shape = ["--c", "4", "--f", "32", "--k", "3", "--n", "16"]
        accepted = [
            ["--algo=special", "--c=1", "--f=4", "--k=3", "--n=16"],
            ["--xray", "--algo", "general"] + shape,
            ["--xray", "--check", "--algo", "general"] + shape,
            ["--autotune", "--arch=kepler4b", "--c", "1", "--f", "8", "--k",
             "3", "--n", "16", "--json"],
            ["--serve", "--network=lenet", "--requests=1", "--no-fuse"],
            ["--algo", "general", "--trace-out=" + paths["TRACE"]] + shape,
        ]
        for argv in accepted:
            r = run(argv)
            if r.returncode != 0:
                failures.append(f"{' '.join(argv)}: exit {r.returncode}, "
                                f"stderr {first_line(r.stderr)!r}")

        # A plan store replays without --replay: the second launch hits.
        store = ["--algo", "general", "--plan-cache", paths["PLANS"],
                 "--json"] + shape
        status = []
        for _ in range(2):
            r = run(store)
            if r.returncode != 0:
                failures.append(f"{' '.join(store)}: exit {r.returncode}")
                break
            status.append(json.loads(r.stdout)["plan_cache_status"])
        if status != ["miss", "hit"]:
            failures.append(f"plan store without --replay: {status}")

    if skipped != len(SELECTORS):
        failures.append(f"{skipped} mode selectors met, not {len(SELECTORS)}")
    for f in failures:
        print("FAIL", f)
    print(f"{refused} refused pairs, {skipped} mode selectors skipped, "
          f"{len(accepted)} accepted invocations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
