#!/usr/bin/env python3
"""Build metro_bench from this checkout's sources, then run one workload.

    python3 metro_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 metro_bench/run.py --workload NAME --trace 1 --spans spans.json
    python3 metro_bench/run.py --all [--seed N --seconds S --trace 0|1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/, as a Release build of the `metro_bench` target only.
Build output goes to stderr; the benchmark's own stdout passes through, so
its last line is the JSON result. --all runs every workload, each in its
own process. The exit code is the benchmark's (2 when the build fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(build_dir, "metro_bench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an existing build directory takes well under a second,
    # and doing it every time repairs a directory a failed run left behind.
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "metro_bench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return binary


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def main(argv):
    binary = build()
    if "--all" not in argv:
        return subprocess.run([binary] + argv).returncode
    rest = [a for a in argv if a != "--all"]
    names = subprocess.run([binary, "--list"], check=True, capture_output=True,
                           text=True).stdout.split()
    worst = 0
    for name in names:
        sys.stdout.flush()
        worst = max(worst, subprocess.run([binary, "--workload", name] + rest).returncode)
    return worst


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(str(e))
