#!/usr/bin/env python3
"""Run one workload of the cfv repo benchmark.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 20 --trace 0

Builds perfbench/ (its own CMake project, which compiles the cfv library
from the enclosing checkout) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the workload.  Build output goes to stderr; the
last line of stdout is the result JSON printed by the benchmark binary.

The benchmark measures the default configuration only: it refuses to run
when any CFV_* variable is set in its environment.  --fault arms a fault
point through CFV_FAULTS itself (the sensitivity self-check uses it).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-batch", "serve-warm")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log("%s failed: %s" % (cmd[0], e))
        return False


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "Makefile")):
        if not run_step(configure, BUILD_TIMEOUT_S):
            return None
    if not run_step(["cmake", "--build", out, "--target", "cfv_perfbench",
                     "-j", "4"], BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out, "cfv_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", metavar="SPEC",
                    help="arm a fault point, e.g. kernel.slow_tile:p=0.05")
    args = ap.parse_args()

    foreign = sorted(k for k in os.environ if k.startswith("CFV_"))
    if foreign:
        log("refusing to run with %s set: the benchmark measures the "
            "default configuration" % ", ".join(foreign))
        return 2

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    env = dict(os.environ)
    if args.fault:
        env["CFV_FAULTS"] = args.fault
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
