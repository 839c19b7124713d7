#!/usr/bin/env python3
"""Build the record/replay benchmark from this checkout and run it.

    python3 rrbench/run.py --workload amg|hacc|hpccg --seed N --seconds S --trace 0|1
    python3 rrbench/run.py --smoke

Builds the runtime (../src) and the harness with optimisation into
.bench_build/rrbench, then runs the harness from the checkout root. Build
output goes to stderr; the harness's last stdout line is the result JSON.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rrbench")
HARNESS = os.path.join(BUILD, "rrbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"rrbench: {cmd[0]} timed out after {timeout} s",
              file=sys.stderr)
        return -1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S,
               sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["amg", "hacc", "hpccg"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a tiny size, all checks on")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    if build() != 0:
        print("rrbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        cmd = [HARNESS, "--smoke"]
    else:
        cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return 1 if run(cmd, RUN_TIMEOUT_S, sys.stdout) != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
