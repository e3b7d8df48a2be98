#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: decode-silesia, seek-base64, compress-silesia.  The last line of
standard output is the JSON result; see perfbench/README.md.  The build goes
to $CARGO_TARGET_DIR (default .bench_build), generated inputs are cached in
.bench_cache, both relative to the repository root.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "rgz_perfbench")
    cache = os.path.join(ROOT, ".bench_cache")
    run = subprocess.run([binary, *sys.argv[1:], "--cache", cache])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
