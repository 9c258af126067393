#!/usr/bin/env python3
"""Build and run oma's end-to-end benchmark (see NOTES.md).

    python3 e2ebench/run.py --workload cold|rerank|warm --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark (e2ebench/ is its
own CMake package over the repository's src/) into
.bench_build/e2ebench, runs it with its stores under that directory,
and passes its output through: the last stdout line is the JSON
result. Exits non-zero when the build fails, a check fails or the
result is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "oma_e2ebench")


def build():
    """Configure and build the benchmark; build output goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "oma_e2ebench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold", "rerank", "warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    try:
        done = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("e2ebench: oma_e2ebench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            not result["correct"]:
        sys.exit("e2ebench: malformed or failing result")


if __name__ == "__main__":
    main()
