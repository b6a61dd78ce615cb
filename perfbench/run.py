#!/usr/bin/env python3
"""Builds and runs perfbench, PathDump's end-to-end + per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: poll_session, standing_shm, datapath_alarms (see
perfbench/README.md).  The program is built from the repository's sources
into .bench_build/perfbench (CMake, RelWithDebInfo).  The benchmark's last
line of standard output is its JSON result; the exit code is nonzero when
the build, a correctness check, or shared-memory cleanup failed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("poll_session", "standing_shm", "datapath_alarms")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def leftover_segments(pid):
    prefix = "pathdump.perfbench.%d." % pid
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except OSError:
        return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = None
    # Segments of a crashed or killed run: remove them, and fail the run.
    stale = leftover_segments(proc.pid)
    for name in stale:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    if out is None:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if stale:
        fail("%d shared-memory segment(s) left behind" % len(stale))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
