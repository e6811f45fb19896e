#!/usr/bin/env python3
"""Builds the wavetune benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the repository root. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
