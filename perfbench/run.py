#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload engine-seq --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the traced run's span files all go
under .bench_build/ in the current directory, so the run reads and
writes nothing outside the checkout. The last line of standard output is
the result object; the exit code is the program's (non-zero on a wrong
solution, a determinism mismatch or a failed build).
"""

import argparse
import os
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    src = os.path.dirname(os.path.abspath(__file__))
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(out, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
    ]
    if args.trace == 1:
        spans = os.path.join(out, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["-spans", spans]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
