#!/usr/bin/env python3
"""Build servebench from the checkout's sources and run one workload.

Usage (from the repository root):
    python3 servebench/run.py --workload lookup|topk|refresh --seed N \
        --seconds S --trace 0|1
    python3 servebench/run.py --selftest

The library and the benchmark are built with CMake into .bench_build/servebench
(Release). Build output goes to stderr; stdout carries only the benchmark's
own report, whose last line is the JSON result. Before every run the
benchmark's self-tests (its percentile, span-budget and ladder arithmetic, and
compare.py's acceptance rule) must pass.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")

sys.path.insert(0, HERE)
import compare  # noqa: E402  (the comparison rule's self-test)


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails the run on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def selftest():
    run_quiet([os.path.join(BUILD, "servebench_selftest")])
    if not compare.selftest():
        fail("compare.py selftest failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["lookup", "topk", "refresh"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run only the self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    selftest()
    if args.selftest:
        print("servebench selftests: ok")
        return 0
    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
