#!/usr/bin/env python3
"""Build psibench from source and run one workload.

Usage (from the repository root):

    python3 psibench/run.py --workload paper_suite --seed 1 \
        --seconds 20 --trace 0

The build tree is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the current directory.  Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.  Every
argument is passed through to the psibench binary, which validates
them.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("psibench: libpsi sources (src/) not found next to psibench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "psibench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("psibench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        return 2
    exe = os.path.join(build_dir, "psibench")
    cmd = [exe] + sys.argv[1:] + ["--out-dir", build_dir]
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        # Never leave the benchmark running behind a killed wrapper.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("psibench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
