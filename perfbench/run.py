#!/usr/bin/env python3
"""Build perfbench from source and run one workload in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes through dune into _build/ with dune's shared cache off, so
nothing is written outside the checkout. The program's last line of
standard output is the result object; build output goes to standard
error. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("power-dp", "power-gr-large", "engine-drift", "forest-coupled")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    run = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(run, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"perfbench: run failed with exit code {done.returncode}")


if __name__ == "__main__":
    main()
