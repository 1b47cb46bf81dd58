#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --heldout K --seconds S --trace 0|1

Run from anywhere inside a checkout.  The first run configures and
builds the benchmark into `.bench_build/` at the checkout root (later
runs only rebuild what changed); build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Generated `.rpc`
inputs live in `.bench_build/work/` during a run; traces stay there.

`--heldout K` replaces `--seed`: it runs on held-out seed
HELDOUT_BASE + K.  No seed at or above HELDOUT_BASE was run while the
benchmark was developed.  Keep it so while developing a change, and a
claim can be re-checked there on inputs nobody tuned against.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HELDOUT_BASE = 7_000_000_000
WORKLOADS = ("serve_exact", "serve_approx_batch", "learn_em")
# Each run must end within 180 s; leave room for the rebuild check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT}: nothing to build")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    seed = parser.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", type=int)
    seed.add_argument("--heldout", type=int, metavar="K",
                      help="run on held-out seed HELDOUT_BASE + K")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Test hooks of perfbench/tests: tiny inputs, a corrupted reference.
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    run_seed = args.seed if args.seed is not None else HELDOUT_BASE + args.heldout
    if not 0 <= run_seed < 2**64:
        fail("seeds are unsigned 64-bit integers")

    build()
    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(run_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        # The generated circuits are regenerated from the seed; only
        # the traces are worth keeping.
        for rpc in work_dir.glob("*.rpc"):
            rpc.unlink()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
