#!/usr/bin/env python3
"""Repository benchmark for the BM-Hive simulator.

    python3 perfbench/run.py --workload net_flood --seed 1 \\
        --seconds 30 --trace 0

Builds the simulator from ../src plus the benchmark binary in this
directory (default tier-1 configuration: RelWithDebInfo, tracing
compiled in, observability and integrity on) under .bench_build/,
then runs the workload's benchmark process again and again, each
time for the same fixed simulated window, until --seconds of wall
time have passed (at least three runs). Each run is a fresh
process, so set-up time and peak memory are measured every time;
the reported host figures are medians over the runs. Modelled
results are deterministic for a seed, so every run must repeat them
exactly.

Workloads (see README.md for why each exists):
  net_flood    uncapped 1-byte UDP flood between two bm-guests
  blk_mixed    closed-loop 4 KiB / 128 KiB reads and writes
  fleet_storm  migration storm with power-loss failovers

--trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced runs with traced ones (benchmark spans written to
.bench_out/, layer probes) and prints the per-layer metrics, the
estimated host ms per layer with the unattributed remainder, and
the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("net_flood", "blk_mixed", "fleet_storm")
MIN_RUNS = 3
# Every benchmark process must finish well inside the 180 s a
# benchmark invocation may take.
RUN_BUDGET_S = 165.0


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log,
                                     stderr=subprocess.STDOUT, cwd=ROOT,
                                     env=env)
            except OSError as e:
                die("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % " ".join(cmd[:2]), 1)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, trace, timeout, extra=()):
    """One benchmark process; returns (report dict, wall seconds)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"] + list(extra)
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "spans_%s_%d.json" % (workload, seed))]
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("%s run exceeded %.0f s" % (workload, timeout), 1)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(p.stderr[-4000:])
        die("%s benchmark process exited %d without a report"
            % (workload, p.returncode), 1)
    return json.loads(lines[-1]), wall


def sim_rate(rep):
    return rep["sim_ms"] / rep["drive_s"]


def unit_of(name):
    """Unit of a per-layer metric, from its naming convention."""
    for unit in ("ns", "us", "ms"):
        if ".host_%s_per_" % unit in name:
            return unit
    if name.endswith(".bytes"):
        return "bytes"
    for suffix, unit in (("_per_s", "ms/s"), ("_us", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"),
                         ("_kib", "KiB"), ("_frac", "fraction"),
                         ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    if name.endswith("_per_chain") or name.endswith("_per_transfer"):
        return "ratio"
    return "count"


E2E_UNITS = {
    "setup_s": "s",
    "sim_ms_per_s": "ms/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
    "model.mops": "Mop/s",
    "model.p50_us": "us",
    "model.p999_us": "us",
}


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every window (the benchmark's tests)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    binary = build()
    extra = ["--tiny"] if args.tiny else []
    start = time.monotonic()
    plain, traced = [], []
    # Runs alternate untraced / traced in trace mode; in plain mode
    # every run is untraced. Stop once --seconds have passed and
    # there are enough runs, or when another run could overrun the
    # per-invocation budget.
    want = MIN_RUNS if not args.trace else 2
    longest = 0.0
    while True:
        n = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        if n >= want and elapsed >= args.seconds:
            break
        if n >= 1 and elapsed + 1.5 * longest > RUN_BUDGET_S:
            break
        trace = bool(args.trace) and n % 2 == 1
        rep, wall = run_once(binary, args.workload, args.seed, trace,
                             RUN_BUDGET_S - elapsed, extra)
        longest = max(longest, wall)
        (traced if trace else plain).append(rep)

    reps = plain + traced
    ctx = reps[0]["context"]
    print("perfbench %s seed=%d runs=%d (%d traced)"
          % (args.workload, args.seed, len(reps), len(traced)))
    ctx.setdefault("sim_threads", "classic core")
    print("host: " + " ".join("%s=%s" % kv for kv in ctx.items()))
    for i, r in enumerate(reps):
        print("  run %d%s: setup %.3f s, drive %.3f s for %.2f sim-ms "
              "(%.3f sim-ms/s), peak RSS %.1f MB, digest %s"
              % (i, " traced" if i >= len(plain) else "", r["setup_s"],
                 r["drive_s"], r["sim_ms"], sim_rate(r),
                 r["peak_rss_mb"], r["digest"]))

    # ---- correctness ----
    correct = True
    for r in reps:
        for c in r["checks"]:
            if not c["ok"]:
                correct = False
                print("  CHECK FAILED %s: %s" % (c["name"], c["detail"]))
    for c in reps[0]["checks"]:
        print("  check %-32s %s  %s" % (c["name"],
                                        "ok" if c["ok"] else "FAIL",
                                        c["detail"]))
    model = reps[0]["model"]
    same_model = all(r["model"] == model for r in reps)
    print("  check %-32s %s  modelled results identical over %d runs"
          % ("model.repeatable", "ok" if same_model else "FAIL",
             len(reps)))
    correct = correct and same_model
    digests = sorted({r["digest"] for r in reps})
    # The digest also covers the whole registry export; it is
    # informational (a host-only change should keep it identical).
    print("  digest %s%s" % (digests[0],
                             "" if len(digests) == 1 else
                             "  (registry export DIFFERED between "
                             "runs: %s)" % ", ".join(digests)))

    print("  modelled results (simulated time, seed %d):" % args.seed)
    for k, v in model.items():
        print("    %-28s %s" % (k, fmt(v)))
    if "net.paper_mpps" in model:
        print("    paper 4.3 uncapped PPS: model %.2f M vs paper %.1f M "
              "(error %+.1f%%)" % (model["net.mpps"],
                                   model["net.paper_mpps"],
                                   model["net.err_pct"]))
    if "blk.paper_4k_mean_us" in model:
        print("    paper 4.3 local-SSD 4 KiB latency: model %.1f us vs "
              "paper ~%.0f us (error %+.1f%%)"
              % (model["blk.4k_mean_us"], model["blk.paper_4k_mean_us"],
                 model["blk.err_pct"]))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("  operations: %d attempted, %d failed over %d runs"
          % (attempted, failed, len(reps)))
    if attempted < 1:
        correct = False
        attempted = 1

    if not args.trace:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "sim_ms_per_s": statistics.median(sim_rate(r) for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in reps),
            "ops_ok_frac": 1.0 - failed / attempted,
            "model.mops": model["mops"],
            "model.p50_us": model["p50_us"],
            "model.p999_us": model["p999_us"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
        print("  end-to-end (host medians over %d runs):" % len(reps))
        for k, m in metrics.items():
            print("    %-28s %-14s %s" % (k, fmt(m["value"]), m["unit"]))
    else:
        layers = {}
        for k in traced[0]["layers"]:
            layers[k] = statistics.median(r["layers"][k] for r in traced)
        untraced_rate = statistics.median(sim_rate(r) for r in plain)
        traced_rate = statistics.median(sim_rate(r) for r in traced)
        layers["trace.untraced_sim_ms_per_s"] = untraced_rate
        layers["trace.traced_sim_ms_per_s"] = traced_rate
        layers["trace.overhead_pct"] = (
            100.0 * (untraced_rate - traced_rate) / untraced_rate)
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in layers.items()}
        print("  per-layer (medians over %d traced runs):" % len(traced))
        for k, m in metrics.items():
            if not k.startswith("est."):
                print("    %-40s %-14s %s"
                      % (k, fmt(m["value"]), m["unit"]))
        drive_ms = statistics.median(r["drive_s"] for r in traced) * 1e3
        print("  host ms per layer (ESTIMATE: probe ns/call x exported "
              "call count, of %.1f driven host ms):" % drive_ms)
        for k in ("est.mem.dma_host_ms", "est.cloud.vswitch_host_ms",
                  "est.cloud.volume_host_ms", "est.unattributed_host_ms"):
            print("    %-40s %10.2f ms  (%5.1f%%)"
                  % (k, layers[k], 100.0 * layers[k] / drive_ms))
        print("  tracing overhead: %.3f untraced - %.3f traced = %.3f "
              "sim-ms/s (%.2f%%)"
              % (untraced_rate, traced_rate, untraced_rate - traced_rate,
                 layers["trace.overhead_pct"]))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
