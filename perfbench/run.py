#!/usr/bin/env python3
"""Build the mramsim benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-grid --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the workspace crates, so it is always built from
the sources next to it. Cargo output goes to stderr; the benchmark's
last stdout line is the JSON result. Exits non-zero, printing no result,
when the build fails (for example when the workspace crates are absent).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# One run must finish well inside three minutes; the build is not counted.
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(ROOT, target, "release", "mramsim-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
