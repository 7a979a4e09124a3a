#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the simulator libraries and the perfbench binary from source
(CMake, into .bench_build/ at the repository root), then runs one
workload:

    python3 perfbench/run.py --workload paper_sweep --seed 7 \\
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run; the last stdout line is the JSON result.

    python3 perfbench/run.py --self-check       # the benchmark's own tests
    python3 perfbench/run.py --record-digests   # re-record digests.json

At the default seed (42) the run's output digests are checked against
perfbench/digests.json; at any other seed they are printed, so two
builds can be compared exactly on a held-out seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 42
WORKLOADS = ["paper_sweep", "collective_sweep", "predict_dense"]
# Batches recorded per workload in digests.json.
RECORDED_BATCHES = 8


def run_timeout(seconds):
    """Host seconds a run may take: a traced run measures pairs for half
    of --seconds but adds a warm-up batch, unit loops and a cache replay,
    so the allowance grows with --seconds (170 s at 30 s)."""
    return 110 + 2 * seconds


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed:", " ".join(cmd), e)
            return False
        if rc != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def run_binary(args, capture=False, seconds=30):
    """Run the perfbench binary; returns (exit code, stdout or None)."""
    cmd = [BINARY, "--work-dir", os.path.join(BUILD, "work")] + args
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=run_timeout(seconds),
                           stdout=subprocess.PIPE if capture else None,
                           text=True)
    except subprocess.TimeoutExpired:
        log("perfbench timed out:", " ".join(cmd))
        return 124, None
    return p.returncode, p.stdout


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def self_check():
    rc, _ = run_binary(["--self-check"])
    ok = rc == 0
    rc2, listing = run_binary(["--list-metrics"], capture=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in bench[kind]}
    produced = {tuple(line.split()) for line in (listing or "").splitlines()}
    same = rc2 == 0 and declared == produced
    print("self-check %s: BENCHMARK.json names and units match the binary"
          % ("ok  " if same else "FAIL"))
    if not same:
        for item in sorted(declared ^ produced):
            print("  mismatch:", " ".join(item))
    workloads = [w["name"] for w in bench["workloads"]]
    same_w = workloads == WORKLOADS and all(
        w in load_digests() for w in WORKLOADS)
    print("self-check %s: workloads declared and digests recorded"
          % ("ok  " if same_w else "FAIL"))
    return 0 if ok and same and same_w else 1


def record_digests():
    recorded = {"seed": DEFAULT_SEED}
    for w in WORKLOADS:
        rc, out = run_binary(["--workload", w, "--seed", str(DEFAULT_SEED),
                              "--trace", "0", "--batches",
                              str(RECORDED_BATCHES)], capture=True,
                           seconds=20 * RECORDED_BATCHES)
        if rc != 0:
            log("recording failed for", w)
            return 1
        digests = [line.split("digest ")[1].strip()
                   for line in out.splitlines()
                   if line.startswith("batch ") and "digest " in line]
        recorded[w] = digests
        log(w, digests)
    with open(DIGESTS, "w") as f:
        json.dump(recorded, f, indent=2)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    a = ap.parse_args()
    if not (a.workload or a.self_check or a.record_digests):
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 2
    if a.self_check:
        return self_check()
    if a.record_digests:
        return record_digests()

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.seed == DEFAULT_SEED:
        args += ["--expect-digests", ",".join(load_digests()[a.workload])]
    rc, _ = run_binary(args, seconds=a.seconds)
    return rc


if __name__ == "__main__":
    sys.exit(main())
