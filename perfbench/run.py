#!/usr/bin/env python3
"""Build and run perfbench, SPRITE's repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The Go program in perfbench/ is built from the checkout's own source into
.bench_build/perfbench/, with the Go build cache and every other file the
toolchain writes kept under .bench_build/ as well, and then runs in place of
this script with the same arguments. Build output goes to standard error, so
the last line of standard output stays the program's JSON result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
