#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

Cargo's build output goes to stderr; the benchmark's report goes to stdout
and ends with one JSON line (`correct`, `attempted`, `failed`, `metrics`).
The exit code is non-zero when the build fails or any output diverges from
its reference. Builds go to `$CARGO_TARGET_DIR` (default `.bench_build`);
traced runs write their spans under `perfbench/out/`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile-cold", "sim-stream", "serve-sessions")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run(
        [
            os.path.join(target, "release", "perfbench"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
