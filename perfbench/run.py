#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <batch_predict|serve_read|serve_update> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that depends
on the repository's crates by path. It is built in release mode into
CARGO_TARGET_DIR (default: perfbench/target); build output goes to standard
error. The run's standard output ends with one JSON line holding the result.
Scratch files (durable data directories, span dumps) go to perfbench/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    # a stray pin (RAVEN_SCORER=interpreted, RAVEN_FUSION=off, ...) would
    # change which code runs and pass for a regression
    pins = sorted(k for k in os.environ if k.startswith("RAVEN_"))
    if pins:
        print(f"perfbench: refusing to run with {', '.join(pins)} set", file=sys.stderr)
        return 2
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "raven-perfbench")
    out = os.path.join(HERE, "out")
    return subprocess.run([exe, *sys.argv[1:], "--out", out], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
