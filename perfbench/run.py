#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload object-mixed --seed 1 --seconds 10 --trace 0

The script builds perfbench/ (its own Go module, which uses the
repository through a replace directive) into the build directory, then
runs it with the given arguments. Every file it writes stays inside the
working directory: the Go build cache, the binary and the span files. The benchmark's own output is passed through; its last
line is the JSON summary. The exit code is the benchmark's, or 1 when
the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    gocache = os.path.join(build, "gocache")
    tmp = os.path.join(build, "tmp")
    for d in (gocache, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=gocache,
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(build, "perfbench")
    src = os.path.join(root, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, timeout=700)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--dir", os.path.join(build, "run")] + sys.argv[1:]
    return subprocess.run(args, env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
