#!/usr/bin/env python3
"""Builds the host-time benchmark from this checkout's sources and runs it.

    python3 hostbench/run.py --workload grid-solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; inputs are generated there from the seed
and removed after the run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. setup_s is the
median of SETUP_PROCESSES cold set-ups, each in a fresh process (the last
one is the measured run's own), so once-per-process costs count. Without
the library sources next to this directory the build fails and the script
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-solve", "serve-churn", "ldpc-decode")
# A run must end within 180 s once built; leave room to clean up.
RUN_BUDGET_S = 170.0
SETUP_PROCESSES = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hostbench")


def build(targets=("hostbench",)):
    """Configures (once) and builds; returns the build directory."""
    out = build_dir()
    # Keep compiler and program temporaries inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    start = time.monotonic()
    exe = os.path.join(out, "hostbench")
    data = os.path.join(out, "data", args.workload)
    shutil.rmtree(data, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data", data]
    try:
        # Inputs come from a separate process so the measured one starts
        # with a clean heap and its peak RSS is the program's own.
        subprocess.run([exe, "gen", *common], check=True,
                       timeout=RUN_BUDGET_S, stdout=sys.stderr)
        setups = []
        for _ in range(SETUP_PROCESSES - 1 if args.trace == 0 else 0):
            left = RUN_BUDGET_S - (time.monotonic() - start)
            child = subprocess.run([exe, "setup", *common], check=True,
                                   timeout=left, stdout=subprocess.PIPE,
                                   text=True)
            setups.append(json.loads(child.stdout)["setup_s"])
        left = RUN_BUDGET_S - (time.monotonic() - start)
        proc = subprocess.run(
            [exe, "run", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=left, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded its time budget", file=sys.stderr)
        return 1
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        spans = os.path.join(data, "spans.jsonl")
        if os.path.exists(spans):
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(data, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    if setups:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        lines[-1:] = ["setup_s per process: " +
                      " ".join(f"{v:.6f}" for v in setups),
                      json.dumps(result)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
