#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 rpxbench/run.py --workload fleet_small|fleet_faulty|slam_rp \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
the rpx libraries (from src/) and the rpxbench executable into .bench_build
(or $CARGO_TARGET_DIR when set); later calls rebuild incrementally.
Build output goes to stderr, so stdout is the benchmark's own and ends
with its one-line JSON result. Exits non-zero, printing no result, when
the build or any output check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if shutil.which("cmake") is None:
        print("rpxbench: cmake not found", file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "rpxbench",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("rpxbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(build_dir, "rpxbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
