#!/usr/bin/env python3
"""Builds cdbench from source and runs one workload.

Usage, from the repository root:

    python3 cdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default: cdbench/target).
Build output goes to stderr, so the last line on stdout is the result
JSON. A traced run also writes its spans to
<target>/cdbench/<workload>.trace.jsonl. The exit code is the
benchmark's: 0 when every correctness check held, non-zero otherwise or
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    """The value following `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("cdbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(target, "release", "cdbench")] + args
    workload = flag(args, "--workload")
    if flag(args, "--trace") == "1" and workload:
        cmd += ["--trace-out",
                os.path.join(target, "cdbench", workload + ".trace.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
