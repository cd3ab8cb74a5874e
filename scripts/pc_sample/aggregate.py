#!/usr/bin/env python3
"""Aggregates pc_sample.so output by function and by source line.

    python3 scripts/pc_sample/aggregate.py PREFIX.PID [--top 25]

PREFIX.PID names one sampled process: its PREFIX.PID.pcs (one hex PC per
line) and PREFIX.PID.maps (its /proc/self/maps at exit). Each PC is mapped
to the ELF file and address it came from and resolved with
`addr2line -f -C -i`; samples are then counted per function and per
file:line, largest first, with their share of all samples.

The innermost function at a PC is, after inlining, whichever helper the
PC landed in (a recorder's note, an analyzer loop), not the kernel
coroutine that paid for it, so samples are also counted by outermost
non-inlined function and by full inline chain (outermost first).
"""
import argparse
import collections
import subprocess
import sys


def load_maps(path):
    """Executable mappings as (start, end, file offset, path)."""
    maps = []
    for line in open(path):
        parts = line.split()
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        lo, hi = (int(v, 16) for v in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return maps


def is_pie_or_shared(path):
    """True for ET_DYN objects, whose PCs must be made load-relative."""
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and header[16] == 3


def resolve(path, addrs):
    """Maps each address to its inline chain, innermost first: one
    (function, line) pair per frame."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path]
        + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    # -a prints each address before its frames, which is what delimits one
    # address's variable-length inline chain from the next.
    chains, i = {}, 0
    for a in addrs:
        assert out[i].startswith("0x"), out[i]
        i += 1
        frames = []
        while i + 1 < len(out) and not out[i].startswith("0x"):
            frames.append((out[i], out[i + 1]))
            i += 2
        chains[a] = frames or [("??", "??:0")]
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="PREFIX.PID of the .pcs/.maps pair")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps = load_maps(args.base + ".maps")
    pcs = [int(l, 16) for l in open(args.base + ".pcs") if l.strip()]
    if not pcs:
        sys.exit("no samples recorded")

    # Group each module's addresses so addr2line runs once per module.
    per_module = collections.defaultdict(list)
    unmapped = 0
    for pc in pcs:
        for lo, hi, off, path in maps:
            if lo <= pc < hi:
                rel = pc - lo + off if is_pie_or_shared(path) else pc
                per_module[path].append(rel)
                break
        else:
            unmapped += 1

    by_func, by_line = collections.Counter(), collections.Counter()
    by_outer, by_chain = collections.Counter(), collections.Counter()
    for path, addrs in per_module.items():
        uniq = sorted(set(addrs))
        module = path.rsplit("/", 1)[-1]
        chains = resolve(path, uniq)
        for a, n in collections.Counter(addrs).items():
            frames = chains[a]  # innermost first
            func, line = frames[0]
            by_func[f"{func}  [{module}]"] += n
            by_line[line.split(" (")[0]] += n
            by_outer[f"{frames[-1][0]}  [{module}]"] += n
            chain = " > ".join(f for f, _ in reversed(frames))
            by_chain[f"{chain}  [{module}]"] += n

    total = len(pcs)
    print(f"{total} samples ({unmapped} outside file mappings)")
    for title, counter in [("by function", by_func), ("by line", by_line),
                           ("by outermost function", by_outer),
                           ("by inline chain", by_chain)]:
        print(f"\n-- {title} --")
        for key, n in counter.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}%  {n:7d}  {key}")


if __name__ == "__main__":
    main()
