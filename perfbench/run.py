#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch-sparse --seed 1 --seconds 20 --trace 0

Build output goes to standard error; the benchmark's result is the last line of
standard output. Build products go to $CARGO_TARGET_DIR (default `.bench_build`),
and traces and scratch files to its `perfbench/` subdirectory.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "hcsp-perfbench")
    out_dir = os.path.join(target, "perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
