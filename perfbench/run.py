#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds this directory's Go module
(which uses the repository's packages through a `replace` of the parent
directory) into the build directory, $CARGO_TARGET_DIR or .bench_build,
keeping Go's build cache, module cache, temporary files and
configuration there as well. Then it runs the benchmark with the same
arguments and exits with its exit code. If the build fails it exits with
code 1 and prints no result.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    out = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    for d in (out, tmp):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    go = shutil.which("go", path=env.get("PATH"))
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, *sys.argv[1:], "--out", out], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
