#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload sine_adaptive --seed 1 --seconds 15 --trace 0

Every flag is passed through to the Go program, which prints a report and,
as its last line, one JSON result object. The build cache and the binary
live under .bench_build/ in the repository root, so nothing is written
outside the checkout. The exit code is the program's, or 1 when the build
fails (for example when the repository sources next to perfbench/ are
missing).
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
        timeout=850,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
