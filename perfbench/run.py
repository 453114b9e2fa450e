#!/usr/bin/env python3
"""Run one perfbench workload and print its result line last.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from the source tree with dune, then runs it in
a fresh process with a private scratch directory under .perfbench/ and an
environment scrubbed of the EMMVER_* variables that would leak a shared
cache store, socket or trace file into the run.  Traced runs write one
Chrome trace per workload to .perfbench/traces/.  Exits non-zero, without
a result line, when the tree cannot be built or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["quicksort-solver", "image-filter-certified", "serve-warm"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
LEAKY_ENV = ["EMMVER_CACHE_DIR", "EMMVER_TRACE", "EMMVER_SOCKET"]


def fail(code, why):
    print("perfbench: " + why, file=sys.stderr)
    sys.exit(code)


def stop_group(pgid):
    """SIGKILL whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ["dune-project", "lib"]:
        if not os.path.exists(os.path.join(root, needed)):
            fail(2, f"no {needed} at {root}: run from a full source tree")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=root, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, f"build failed: {e}")
    if build.returncode != 0:
        fail(3, "build failed")

    env = {k: v for k, v in os.environ.items() if k not in LEAKY_ENV}
    # Relative paths keep the daemon's socket path short.
    state = ".perfbench"
    scratch = os.path.join(state, f"run-{os.getpid()}")
    traces = os.path.join(state, "traces")
    os.makedirs(os.path.join(root, scratch))
    os.makedirs(os.path.join(root, traces), exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", scratch, "--trace-dir", traces,
        "--expected", os.path.join("perfbench", "expected.txt"),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        shutil.rmtree(os.path.join(root, scratch), ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(proc.returncode, f"run exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail(5, "no result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
