#!/usr/bin/env python3
"""Take and compare --metrics-out snapshots of every bench binary.

    bench_snapshots.py [--build-dir build] [--jobs 2] OUT [-- ARGS...]
        run every <build-dir>/bench/bench_* binary with
        `--quick --metrics-out=OUT/<bench>.json` (plus ARGS, e.g.
        --fault-seed=7) and keep its stdout in OUT/<bench>.stdout

    bench_snapshots.py --compare A B
        per bench: whether the two snapshots are byte-identical;
        if not, the metric names that differ (through
        metrics_check.py's structural diff), the metrics present in
        only one of them, and the stdout lines that differ

The equivalence check for a refactor: snapshot the parent build and
the change's build, then compare. Exit code 0 when every snapshot
and stdout is identical, 1 otherwise, 2 on usage errors.
"""

import argparse
import concurrent.futures
import difflib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics_check  # noqa: E402


def bench_binaries(build_dir):
    bench_dir = os.path.join(build_dir, "bench")
    names = sorted(n for n in os.listdir(bench_dir)
                   if n.startswith("bench_") and
                   os.access(os.path.join(bench_dir, n), os.X_OK) and
                   os.path.isfile(os.path.join(bench_dir, n)))
    return [os.path.join(bench_dir, n) for n in names]


def run_one(binary, out_dir, extra):
    name = os.path.basename(binary)
    snap = os.path.join(out_dir, name + ".json")
    cmd = [binary, "--quick", "--metrics-out=" + snap] + extra
    run = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    # The snapshot path is echoed; keep it out of the comparison.
    with open(os.path.join(out_dir, name + ".stdout"), "w") as out:
        out.write(run.stdout.replace(out_dir, "<out>"))
    return name, run.returncode


def take(args):
    os.makedirs(args.out, exist_ok=True)
    binaries = bench_binaries(args.build_dir)
    if not binaries:
        print(f"no bench binaries under {args.build_dir}/bench",
              file=sys.stderr)
        return 2
    failed = 0
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        jobs = [pool.submit(run_one, b, args.out, args.extra)
                for b in binaries]
        for job in jobs:
            name, rc = job.result()
            print(f"{name}: rc={rc}")
            failed += rc != 0
    return 1 if failed else 0


def metric_diff(a, b):
    """Differing metric names and names only in a / only in b."""
    differ, only_a, only_b = [], [], []
    for label in sorted(a.keys() | b.keys()):
        ra, rb = a.get(label, {}), b.get(label, {})
        for name in sorted(ra.keys() | rb.keys()):
            where = f"{label}: {name}"
            if name not in rb:
                only_a.append(where)
            elif name not in ra:
                only_b.append(where)
            else:
                errs = []
                metrics_check.diff(errs, name, ra[name], rb[name])
                if errs:
                    differ.append(where)
    return differ, only_a, only_b


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def compare(dir_a, dir_b):
    # Benches may drop flight-recorder dumps next to the snapshot;
    # only the bench_*.json files are snapshots.
    names = sorted({n[:-5] for d in (dir_a, dir_b)
                    for n in os.listdir(d)
                    if n.startswith("bench_") and n.endswith(".json")})
    clean = True
    for name in names:
        ja = read(os.path.join(dir_a, name + ".json"))
        jb = read(os.path.join(dir_b, name + ".json"))
        if ja is None or jb is None:
            print(f"{name}: snapshot missing in "
                  f"{dir_a if ja is None else dir_b}")
            clean = False
            continue
        if ja == jb:
            print(f"{name}: identical")
        else:
            clean = False
            differ, only_a, only_b = metric_diff(json.loads(ja),
                                                 json.loads(jb))
            print(f"{name}: {len(differ)} differing, {len(only_a)} "
                  f"only in A, {len(only_b)} only in B")
            for tag, items in (("differs", differ),
                               ("only in A", only_a),
                               ("only in B", only_b)):
                for item in items:
                    print(f"  {tag}: {item}")
        sa = read(os.path.join(dir_a, name + ".stdout")) or b""
        sb = read(os.path.join(dir_b, name + ".stdout")) or b""
        if sa != sb:
            clean = False
            lines = difflib.unified_diff(
                sa.decode(errors="replace").splitlines(),
                sb.decode(errors="replace").splitlines(),
                lineterm="", n=0)
            print(f"  stdout differs:")
            for line in lines:
                if not line.startswith(("---", "+++", "@@")):
                    print(f"    {line}")
    return 0 if clean else 1


def main(argv):
    if len(argv) > 1 and argv[1] == "--compare":
        if len(argv) != 4:
            print("usage: bench_snapshots.py --compare A B",
                  file=sys.stderr)
            return 2
        return compare(argv[2], argv[3])
    p = argparse.ArgumentParser(
        usage="bench_snapshots.py [--build-dir DIR] [--jobs N] "
              "OUT [-- ARGS...]")
    p.add_argument("--build-dir", default="build")
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("out")
    p.add_argument("extra", nargs="*")
    return take(p.parse_args(argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
