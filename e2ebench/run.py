#!/usr/bin/env python3
"""Build and run the full-stack DQVL benchmark.

    python3 e2ebench/run.py --workload openloop_zipf --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
e2ebench/ (the simulator sources under src/ plus the benchmark program) into
$CARGO_TARGET_DIR, default .bench_build; later calls only re-make.  Build
output goes to stderr.  The benchmark's stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  See e2ebench/README.md for
the workloads and metrics.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("openloop_zipf", "closedloop_paper", "crash_writes")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and make the dq_e2e binary; returns its path."""
    marker = os.path.join(ROOT, "src", "workload", "experiment.h")
    if not os.path.isfile(marker):
        sys.exit("run.py: simulator sources not found under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(out, "dq_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
