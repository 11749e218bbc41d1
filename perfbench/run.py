#!/usr/bin/env python3
"""Run the repository benchmark on one workload and print its result.

    python3 perfbench/run.py --workload fits --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds the `perfbench` crate
(release, offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when that is
unset, then runs the workload's legs as separate processes, each under a
wall-time limit:

  --trace 0  one virtual leg (exact simulated-time metrics) and one host
             leg (wall-clock throughput). Prints the end-to-end metrics of
             BENCHMARK.json.
  --trace 1  an untraced and a traced virtual leg, whose digests must agree
             (the leg reproduces across processes, and tracing changes
             nothing) and whose spans must conserve time, then an untraced
             and a traced host leg. Prints the per-layer metrics of
             BENCHMARK.json.

Every leg is pinned to one CPU: a virtual leg runs one simulated core at a
time, and a host leg runs one worker thread.

A leg that panics, exits non-zero or overruns its limit counts all of its
operations as failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
human-readable table with each metric's unit and sample count. See
perfbench/README.md for the workloads and metrics.
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
WORKLOADS = ("fits", "quantum", "serve", "overload", "overflow")
DEFAULT_SEED = 1
# Kept out of tuning: a claimed gain must also hold on this seed.
HELD_OUT_SEED = 7919
# Wall-time limits per leg, in seconds (a host leg gets its measuring time
# on top). Together they keep a whole run under three minutes.
VIRTUAL_LIMIT_S = 45
HOST_SLACK_S = 20
BUILD_LIMIT_S = 900


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Build the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed (exit {done.returncode})")
        return None
    return os.path.join(target, "release", "perfbench")


def pin():
    """Pin this process, and so every leg it starts, to one allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Legs:
    """Runs legs and keeps the operation counts of the whole run."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.base = ["--workload", workload, "--seed", str(seed)]
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, leg, limit, extra=()):
        """Run one leg; returns its JSON result, or None if it died."""
        cmd = [self.binary, leg, *self.base, *extra]
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=limit)
            out, err, code = done.stdout, done.stderr, done.returncode
        except subprocess.TimeoutExpired:
            out, err, code = "", f"timed out after {limit} s", None
        if code == 0 and out.strip():
            res = json.loads(out.strip().splitlines()[-1])
            self.attempted += int(res["attempted"])
            self.failed += int(res["failed"])
            if res["failed"]:
                self.correct = False
            return res
        log(f"perfbench: leg {' '.join(cmd[1:])} died (exit {code}): "
            f"{(err or '').strip()[-2000:]}")
        # The leg's own count is lost with it: charge a planned size.
        planned = self.planned(leg, extra)
        self.attempted += planned
        self.failed += planned
        self.correct = False
        return None

    def planned(self, leg, extra):
        """Operations a leg plans: asked of the binary itself."""
        try:
            done = subprocess.run([self.binary, "plan", *self.base, "--leg", leg, *extra],
                                  capture_output=True, text=True, timeout=30)
            return max(1, int(done.stdout.strip().splitlines()[-1]))
        except (OSError, ValueError, IndexError, subprocess.TimeoutExpired):
            return 1

    def mismatch(self, what, res):
        log(f"perfbench: {what}")
        self.correct = False
        if res is not None:
            self.failed += int(res["attempted"])


def end_to_end(legs, seconds):
    t0 = time.monotonic()
    v = legs.run("virtual", VIRTUAL_LIMIT_S)
    host_s = max(seconds - (time.monotonic() - t0), seconds / 4)
    h = legs.run("host", host_s + HOST_SLACK_S, ["--seconds", f"{host_s:.3f}"])
    found = {}
    if v:
        n = int(v["lat_samples"])
        found["vtput"] = (v["vtput"], n)
        for k in ("v_p50_wu", "v_p99_wu", "v_p999_wu"):
            found[k] = (v[k], n)
        if "v_rate_at_slo" in v:
            found["v_rate_at_slo"] = (v["v_rate_at_slo"], int(v["ladder_samples"]))
        found["sim_mwu_per_s"] = (v["sim_mwu_per_s"], len(v["sub_run_speeds"]))
        found["setup_s"] = (statistics.median(v["setup_s"]), len(v["setup_s"]))
    if h:
        found["host_tput"] = (h["host_tput"], int(h["reps"]))
    done = [x for x in (v, h) if x]
    if done:
        found["peak_rss_mb"] = (max(x["peak_rss_mb"] for x in done), len(done))
    return found


def per_layer(legs, seconds):
    t0 = time.monotonic()
    u = legs.run("virtual", VIRTUAL_LIMIT_S)
    t = legs.run("virtual", VIRTUAL_LIMIT_S, ["--traced"])
    if u and t and u["digest"] != t["digest"]:
        legs.mismatch("traced virtual leg differs from the untraced one: digests "
                      f"{u['digest']} != {t['digest']}", t)
    if t and (t.get("conserved", 1) != 1 or t.get("stray_segments", 0) != 0):
        legs.mismatch("span conservation failed on the traced virtual leg", t)
    host_s = max(seconds - (time.monotonic() - t0), seconds / 4) / 2
    hu = legs.run("host", host_s + HOST_SLACK_S, ["--seconds", f"{host_s:.3f}"])
    ht = legs.run("host", host_s + HOST_SLACK_S, ["--seconds", f"{host_s:.3f}", "--traced"])
    found = {}
    if t:
        n = int(t["commits"])
        found.update({k: (val, n) for k, val in t["layers"].items()})
    if u:
        found["vclock.host_us_per_tx"] = (u["layers"]["vclock.host_us_per_tx"], int(u["commits"]))
        found["sim_mwu_per_s"] = (u["sim_mwu_per_s"], len(u["sub_run_speeds"]))
    if ht:
        for k, val in ht["layers"].items():
            found[k] = (val, int(ht["reps"]))
    if hu and ht:
        found["trace.overhead_frac"] = (1.0 - ht["host_tput"] / hu["host_tput"], 2)
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    metrics_e2e, metrics_layer = load_metrics()
    binary = build()
    if binary is None:
        sys.exit(1)
    pin()
    legs = Legs(binary, args.workload, args.seed)
    if args.trace:
        found, wanted = per_layer(legs, args.seconds), metrics_layer
    else:
        found, wanted = end_to_end(legs, args.seconds), metrics_e2e
        if legs.attempted:
            found["err_frac"] = (legs.failed / legs.attempted, legs.attempted)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"{'metric':32} {'value':>16} {'unit':>10} {'samples':>8}")
    units = {m["name"]: m["unit"] for m in wanted}
    # Printed for reading, not gated: see perfbench/README.md.
    units.setdefault("sim_mwu_per_s", "Mwu/s")
    units.setdefault("v_p999_wu", "wu")
    units.setdefault("v_rate_at_slo", "op/Mwu")
    units.setdefault("err_frac", "ratio")
    for name in list(units):
        if name in found:
            val, n = found[name]
            print(f"{name:32} {val:16.6g} {units[name]:>10} {n:8d}")
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        legs.correct = False
        log(f"perfbench: no value for {', '.join(missing)}")
    result = {
        "correct": legs.correct and legs.failed == 0,
        "attempted": max(legs.attempted, 1),
        "failed": legs.failed,
        "metrics": {m["name"]: {"value": found[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] in found},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
